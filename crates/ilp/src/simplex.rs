//! Bounded-variable two-phase primal simplex with a warm-started dual
//! simplex for re-optimization.
//!
//! Solves the LP relaxation of a [`Model`]: maximize `c·x`
//! subject to `A x {<=,>=,==} b` and `l <= x <= u`. Variables may have
//! infinite upper bounds; lower bounds of structural variables must be
//! finite (enforced by `Model`), while slack variables may be free on one
//! side.
//!
//! Implementation notes:
//! - one slack per row converts the system to equalities; equality rows get
//!   a slack fixed to `[0, 0]`;
//! - phase 1 introduces artificial variables only for rows whose slack
//!   basis is infeasible, and minimizes their sum;
//! - the basis inverse `B^-1` is kept explicitly (dense, row-major) and
//!   updated by elementary row operations per pivot. Every kernel walks
//!   it along contiguous row slices and may skip or include operands that
//!   are exactly `0.0`, nothing else: no operation on a nonzero operand is
//!   added, dropped or reordered, so the pivot sequence is a function of
//!   the model alone (DESIGN.md, "Kernel layout and the exact-zero
//!   contract"). The update gathers the pivot row's nonzeros once per
//!   pivot; a row with at least a quarter of its entries nonzero (the
//!   3-tenant joint averages 22 % of 425, most of it cancellation
//!   residue) updates whole target rows at AVX2 width instead. `B^-1` is
//!   refactorized from scratch when a residual check fails;
//! - Dantzig pricing with an automatic switch to Bland's rule after a run
//!   of degenerate pivots guarantees termination;
//! - [`LpWorkspace::solve`] accepts an optimal [`Basis`] from a previous solve
//!   of the same model under different bounds (the branch-and-bound
//!   case). Such a basis stays *dual-feasible* after bound tightening, so
//!   a bounded-variable dual simplex re-optimizes it in a handful of
//!   pivots; any structural or numerical trouble falls back to the cold
//!   two-phase solve, so warm starting never changes what is solvable;
//! - the equilibrated matrix depends on the model alone, so an
//!   [`LpWorkspace`] builds it once and solves every relaxation of the
//!   model through it, reusing one set of per-LP buffers.

// Indexed `for i in 0..m` loops mirror the textbook simplex notation and
// often index several arrays in lockstep; iterator chains obscure that.
#![allow(clippy::needless_range_loop)]

use crate::model::{Cmp, Model, Sense};

/// Outcome of an LP solve.
#[derive(Debug, Clone)]
pub enum LpResult {
    /// Optimal solution: structural variable values and objective (in the
    /// model's original sense).
    Optimal { x: Vec<f64>, obj: f64 },
    Infeasible,
    Unbounded,
}

/// Hard solver failure (numerical breakdown, iteration limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    IterationLimit,
    Numerical(String),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit => write!(f, "simplex iteration limit reached"),
            LpError::Numerical(m) => write!(f, "numerical failure in simplex: {m}"),
        }
    }
}

impl std::error::Error for LpError {}

const FEAS_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-8;
const COST_TOL: f64 = 1e-7;
const DEGENERATE_SWITCH: usize = 60;
const REFRESH_PERIOD: usize = 128;
/// Dual-feasibility tolerance when validating a warm basis. Slightly
/// looser than `COST_TOL`: the parent's optimum satisfies `COST_TOL`, and
/// the refactorization adds a little noise on top.
const DUAL_FEAS_TOL: f64 = 1e-6;
/// Consecutive zero-length dual steps before the warm path gives up and
/// falls back to the cold solve (dual degeneracy stalls are rare but the
/// cold path is always available).
const DUAL_DEGENERATE_LIMIT: usize = 200;

/// Status of one variable in a [`Basis`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BStat {
    Basic,
    AtLower,
    AtUpper,
    Free,
}

/// Row cap above which a snapshot stores only variable statuses, not the
/// basis inverse. Below it the install is an O(m²) copy; beyond it a warm
/// install pays one refactorization instead. A dense snapshot is m² × 8 B
/// (8 MiB at the cap) only while it passes from one LP to the next: the
/// search tree keeps its nonzeros ([`StoredBasis`]), whose `u16` column
/// indices this cap keeps in range.
const BINV_SNAPSHOT_MAX_ROWS: usize = 1024;
const _: () = assert!(BINV_SNAPSHOT_MAX_ROWS <= 1 << 16, "column indices are u16");

/// Snapshot of an optimal simplex basis: the status of every structural
/// and slack variable (`n + m` entries), plus — for models up to
/// `BINV_SNAPSHOT_MAX_ROWS` (1024) rows — the row assignment and the dense
/// basis inverse. `B^-1` depends only on the basic set and the model's
/// (bound-independent) equilibrated matrix, so a child node can install
/// the parent's inverse verbatim and skip the O(m³) refactorization that
/// would otherwise dominate a warm re-solve. Every hand-off from one LP
/// straight to the next passes this dense form; a node waiting on the
/// branch-and-bound stack holds its `StoredBasis` form instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    stat: Vec<BStat>,
    /// Basic variable of each row (the assignment `binv` corresponds to);
    /// empty when the inverse was not captured.
    rows: Vec<usize>,
    /// Dense row-major m×m basis inverse in the solver's equilibrated
    /// space; empty when not captured (then a warm install refactorizes).
    binv: Vec<f64>,
}

impl Basis {
    /// Number of variables (structural + slack) the snapshot covers.
    pub fn len(&self) -> usize {
        self.stat.len()
    }

    /// True when the snapshot covers no variables.
    pub fn is_empty(&self) -> bool {
        self.stat.is_empty()
    }

    /// Extend a snapshot to a model with `extra` rows appended (cut rows):
    /// the new slacks enter the basis, every old status is kept. The row
    /// assignment and inverse are dropped — the extended basis matrix
    /// gains off-diagonal blocks from old basic columns crossing the new
    /// rows, so a warm install pays one refactorization. The extension is
    /// dual feasible by construction (the new slacks have zero cost), so
    /// the dual simplex repairs exactly the rows the new cuts violate.
    pub(crate) fn with_new_rows(&self, extra: usize) -> Basis {
        let mut stat = self.stat.clone();
        stat.extend(std::iter::repeat_n(BStat::Basic, extra));
        Basis { stat, rows: Vec::new(), binv: Vec::new() }
    }
}

/// Bit pattern of `-0.0`.
const NEG_ZERO: u64 = 1 << 63;

/// The search tree's stored form of a [`Basis`]: statuses and row order
/// as they are, and the inverse's nonzeros row by row (CSR, `u16` column
/// indices). Entries are compared by bit pattern, and each row leaves out
/// only its more common zero — a pivot row scaled by a negative pivot
/// turns every zero it holds into `-0.0`, a quarter of the zeros on the
/// joint models — so `-0.0`, `+0.0` and subnormals all survive and
/// [`StoredBasis::expand`] rebuilds the dense snapshot bit for bit: a node
/// warm-starts from its parent's inverse exactly as if it had been kept
/// dense. A captured inverse on the joint models is 2–40 % nonzero, so
/// this is what bounds the memory of a deep stack (DESIGN.md, "Basis
/// lifetime in the search").
#[derive(Debug)]
pub(crate) struct StoredBasis {
    stat: Vec<BStat>,
    rows: Vec<usize>,
    /// Start of each inverse row in `cols`/`vals`, `m + 1` entries; empty
    /// when the snapshot carries no inverse.
    row_start: Vec<u32>,
    /// Rows whose left-out entries are `-0.0` (else `+0.0`).
    neg_zero: Vec<bool>,
    cols: Vec<u16>,
    vals: Vec<f64>,
}

impl StoredBasis {
    pub(crate) fn new(basis: &Basis) -> StoredBasis {
        let m = basis.rows.len();
        let (mut row_start, mut neg_zero, mut cols, mut vals) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        if m > 0 && m <= BINV_SNAPSHOT_MAX_ROWS && basis.binv.len() == m * m {
            let mut nnz = 0;
            neg_zero.reserve_exact(m);
            for row in basis.binv.chunks_exact(m) {
                let neg = row.iter().filter(|v| v.to_bits() == NEG_ZERO).count();
                let pos = row.iter().filter(|v| v.to_bits() == 0).count();
                neg_zero.push(neg > pos);
                nnz += m - neg.max(pos);
            }
            row_start.reserve_exact(m + 1);
            cols.reserve_exact(nnz);
            vals.reserve_exact(nnz);
            row_start.push(0);
            for (row, &neg) in basis.binv.chunks_exact(m).zip(&neg_zero) {
                let zero = if neg { NEG_ZERO } else { 0 };
                for (j, &v) in row.iter().enumerate() {
                    if v.to_bits() != zero {
                        cols.push(j as u16);
                        vals.push(v);
                    }
                }
                row_start.push(vals.len() as u32);
            }
        }
        let (stat, rows) = (basis.stat.clone(), basis.rows.clone());
        StoredBasis { stat, rows, row_start, neg_zero, cols, vals }
    }

    /// The dense snapshot this was built from, owned, for
    /// [`LpWorkspace::solve_take`].
    pub(crate) fn expand(&self) -> Basis {
        let mut binv = Vec::new();
        if let Some(m) = self.row_start.len().checked_sub(1) {
            binv = vec![0.0; m * m];
            let spans = self.row_start.windows(2).zip(&self.neg_zero);
            for (row, (span, &neg)) in binv.chunks_exact_mut(m).zip(spans) {
                if neg {
                    row.fill(-0.0);
                }
                let (a, b) = (span[0] as usize, span[1] as usize);
                for (&j, &v) in self.cols[a..b].iter().zip(&self.vals[a..b]) {
                    row[j as usize] = v;
                }
            }
        }
        Basis { stat: self.stat.clone(), rows: self.rows.clone(), binv }
    }
}

/// Work counters of one LP solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Simplex basis changes (primal and dual pivots; bound flips are not
    /// counted — they touch no basis column).
    pub pivots: usize,
    /// From-scratch rebuilds of `B^-1` (numerical-health refactorizations
    /// and warm installs whose snapshot lacked a captured inverse).
    pub refactorizations: usize,
    /// The solve started from a caller-supplied basis and finished on the
    /// dual-simplex path.
    pub warm: bool,
    /// A warm attempt was abandoned (dual-infeasible or numerically
    /// unusable basis) and the cold two-phase solve ran instead.
    pub fell_back: bool,
}

/// Full outcome of [`LpWorkspace::solve`]: the result, the optimal basis (only
/// for `Optimal` results whose basis is reusable), and work counters.
#[derive(Debug, Clone)]
pub struct LpSolve {
    pub result: LpResult,
    pub basis: Option<Basis>,
    pub stats: LpStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Nonbasic at value zero with both bounds infinite.
    Free,
}

/// Solve the LP relaxation of `model`, with per-variable bound overrides.
///
/// `bounds[j]` replaces the bounds of structural variable `j` (branch-and-
/// bound tightens bounds this way). Integrality is ignored. The returned
/// objective is in the model's own sense.
pub fn solve_lp(model: &Model, bounds: &[(f64, f64)]) -> Result<LpResult, LpError> {
    Ok(solve_lp_ext(model, bounds, None)?.result)
}

/// Solve the LP relaxation, optionally warm-starting from `warm`, and
/// return the result together with the optimal basis and work counters:
/// [`LpWorkspace::solve`] on a workspace built for this one LP.
fn solve_lp_ext(
    model: &Model,
    bounds: &[(f64, f64)],
    warm: Option<&Basis>,
) -> Result<LpSolve, LpError> {
    LpWorkspace::new(model).solve(bounds, warm)
}

/// The LP of one model, built once for every relaxation of it: the
/// equilibrated matrix, and the buffers each solve borrows and hands back.
/// A branch-and-bound search solves dozens to thousands of LPs that differ
/// only in their bounds; through one workspace each of them skips
/// rebuilding and re-equilibrating the n + m columns and allocates only
/// its result and its basis snapshot. Every solve is bit for bit the solve
/// a fresh workspace makes: a solve starts from the same state whatever
/// the buffers held before.
pub struct LpWorkspace {
    mat: LpMatrix,
    scratch: Scratch,
}

impl LpWorkspace {
    /// Equilibrate `model`'s rows and lay out its columns.
    pub fn new(model: &Model) -> LpWorkspace {
        LpWorkspace { mat: LpMatrix::new(model), scratch: Scratch::default() }
    }

    /// Solve the LP under `bounds` (one pair per structural variable),
    /// optionally warm-starting from `warm`.
    ///
    /// With `warm = Some(basis)` the solver installs the basis (copying the
    /// snapshot's captured inverse when present, else one refactorization),
    /// verifies dual feasibility, and runs the bounded-variable dual
    /// simplex. Any structural mismatch (stale shape, wrong basic count),
    /// dual infeasibility, or numerical breakdown falls back to the cold
    /// two-phase solve — warm starting can change how the optimum is
    /// reached, never whether it is found.
    pub fn solve(
        &mut self,
        bounds: &[(f64, f64)],
        warm: Option<&Basis>,
    ) -> Result<LpSolve, LpError> {
        self.solve_from(bounds, warm, None)
    }

    /// [`LpWorkspace::solve`] for a snapshot this solve is the last to need
    /// whole: the captured inverse is moved out of `warm` into the solver
    /// instead of copied, so no second `B^-1` is alive beside the solver's.
    /// Same arithmetic, same result. What is left in `warm` (statuses and
    /// row order) still warm-starts a later solve, at one refactorization.
    pub(crate) fn solve_take(
        &mut self,
        bounds: &[(f64, f64)],
        warm: &mut Basis,
    ) -> Result<LpSolve, LpError> {
        let binv = std::mem::take(&mut warm.binv);
        self.solve_from(bounds, Some(warm), Some(binv))
    }

    /// `moved_inv` is `warm`'s inverse when the caller moved it out
    /// ([`LpWorkspace::solve_take`]); `None` means "copy the snapshot's own".
    fn solve_from(
        &mut self,
        bounds: &[(f64, f64)],
        warm: Option<&Basis>,
        moved_inv: Option<Vec<f64>>,
    ) -> Result<LpSolve, LpError> {
        let (result, mut sx, stats) = self.relax(bounds, warm, moved_inv)?;
        let basis = sx.take_basis_if_optimal(&result);
        self.scratch = sx.into_scratch();
        Ok(LpSolve { result, basis, stats })
    }

    /// Solve the LP like [`LpWorkspace::solve`], additionally extracting up
    /// to `max_rows` fractional tableau rows for Gomory separation when the
    /// result is optimal. `int_mask[j]` marks structural integer variables;
    /// fractionality is judged against `int_tol`.
    pub(crate) fn solve_tableau(
        &mut self,
        bounds: &[(f64, f64)],
        warm: Option<&Basis>,
        int_mask: &[bool],
        int_tol: f64,
        max_rows: usize,
    ) -> Result<TableauLp, LpError> {
        let (result, mut sx, stats) = self.relax(bounds, warm, None)?;
        // The tableau rows read `B^-1`, so they come out before the snapshot
        // moves the inverse into the basis.
        let (frac_rows, stat, values) = match &result {
            LpResult::Optimal { .. } => {
                (sx.extract_frac_rows(int_mask, int_tol, max_rows), sx.tab_stats(), sx.all_values())
            }
            _ => (Vec::new(), Vec::new(), Vec::new()),
        };
        let basis = sx.take_basis_if_optimal(&result);
        self.scratch = sx.into_scratch();
        Ok(TableauLp { result, basis, stats, frac_rows, stat, values })
    }

    /// One relaxation: the warm start when one is given and usable, else
    /// the cold two-phase solve with its Bland's-rule restart. Returns the
    /// finished solver, for the caller to read and then recycle.
    fn relax(
        &mut self,
        bounds: &[(f64, f64)],
        warm: Option<&Basis>,
        moved_inv: Option<Vec<f64>>,
    ) -> Result<(LpResult, Simplex<'_>, LpStats), LpError> {
        assert_eq!(bounds.len(), self.mat.n);
        let mut stats = LpStats::default();
        let mut sx = Simplex::new(&self.mat, bounds, std::mem::take(&mut self.scratch));
        if let Some(basis) = warm {
            let outcome = sx.solve_warm(basis, moved_inv);
            stats.pivots += sx.pivots;
            stats.refactorizations += sx.refactorizations;
            match outcome {
                Ok(Some(result)) => {
                    stats.warm = true;
                    return Ok((result, sx, stats));
                }
                // Unusable basis or numerical trouble on the warm path: the
                // wasted work is counted, the cold solve starts afresh.
                Ok(None) | Err(_) => {
                    stats.fell_back = true;
                    sx = sx.restart(bounds);
                }
            }
        }
        let outcome = match sx.solve() {
            Err(LpError::Numerical(_)) => {
                // Numerical breakdown (ill-conditioned basis): restart from the
                // slack basis under Bland's rule — slower, but immune to the
                // aggressive pivoting that got us here.
                stats.pivots += sx.pivots;
                stats.refactorizations += sx.refactorizations;
                sx = sx.restart(bounds);
                sx.force_bland = true;
                sx.solve()
            }
            other => other,
        };
        let result = outcome?;
        stats.pivots += sx.pivots;
        stats.refactorizations += sx.refactorizations;
        Ok((result, sx, stats))
    }
}

/// A model's LP in the solver's form, independent of bounds: row-equilibrated
/// structural columns followed by one slack column per row, in one flat
/// column-major array; the objective in maximization sense; the scaled
/// right-hand side; each slack's bounds, which encode the row's comparison.
struct LpMatrix {
    /// structural count
    n: usize,
    /// row count
    m: usize,
    /// Column `j`'s `(row, coefficient)` entries, in row order, are
    /// `entries[start[j]..start[j + 1]]` (`n + m + 1` starts).
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
    /// phase-2 objective (maximization) over structural and slack columns
    obj: Vec<f64>,
    rhs: Vec<f64>,
    slack_bounds: Vec<(f64, f64)>,
    /// 1.0 when original sense was Maximize, -1.0 for Minimize
    sense_sign: f64,
}

impl LpMatrix {
    fn new(model: &Model) -> LpMatrix {
        let n = model.num_vars();
        let m = model.num_constraints();
        let sense_sign = match model.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let mut obj = vec![0.0f64; n + m];
        for &(v, c) in &model.objective().terms {
            obj[v.index()] = sense_sign * c;
        }
        // Column starts from the entry counts: every term, plus a slack each.
        let mut start = vec![0usize; n + m + 1];
        for con in model.constraints() {
            for &(v, _) in &con.terms {
                start[v.index() + 1] += 1;
            }
        }
        start[n + 1..].fill(1);
        for j in 0..n + m {
            start[j + 1] += start[j];
        }
        let mut entries = vec![(0, 0.0); start[n + m]];
        let mut next = start.clone();
        let mut rhs = Vec::with_capacity(m);
        let mut slack_bounds = Vec::with_capacity(m);
        for (i, con) in model.constraints().iter().enumerate() {
            // Row equilibration: divide each row by its largest coefficient
            // so pivot tolerances are meaningful regardless of the model's
            // units (compiler models mix 0/1 placements with memory
            // capacities in the tens of thousands).
            let scale = row_scale(con);
            rhs.push(con.rhs / scale);
            for &(v, c) in &con.terms {
                entries[next[v.index()]] = (i, c / scale);
                next[v.index()] += 1;
            }
            entries[start[n + i]] = (i, 1.0);
            slack_bounds.push(match con.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            });
        }
        LpMatrix { n, m, start, entries, obj, rhs, slack_bounds, sense_sign }
    }
}

/// The columns one solve pivots over: the matrix's structural and slack
/// columns (`j < n + m`), then the phase-1 artificials of a cold solve,
/// one `(row, ±1)` entry each.
struct Cols<'a> {
    mat: &'a LpMatrix,
    arts: Vec<(usize, f64)>,
}

impl Cols<'_> {
    fn len(&self) -> usize {
        self.mat.n + self.mat.m + self.arts.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        (0..self.len()).map(|j| &self[j])
    }
}

impl std::ops::Index<usize> for Cols<'_> {
    type Output = [(usize, f64)];

    fn index(&self, j: usize) -> &[(usize, f64)] {
        let mat = self.mat;
        match mat.start.get(j + 1) {
            Some(&end) => &mat.entries[mat.start[j]..end],
            None => std::slice::from_ref(&self.arts[j - mat.n - mat.m]),
        }
    }
}

/// The buffers of one solve, handed from each solve of a workspace to the
/// next so that a chain of LPs does not reallocate them. Every solve
/// overwrites what it reads before reading it.
#[derive(Default)]
struct Scratch {
    arts: Vec<(usize, f64)>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    binv: Vec<f64>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    stat: Vec<VStat>,
    banned: Vec<bool>,
    cost: Vec<f64>,
    eta: Vec<(usize, f64)>,
    y: Vec<f64>,
    w: Vec<f64>,
    resid: Vec<f64>,
    resid_nz: Vec<(usize, f64)>,
}

/// Status of one variable in an extracted [`TableauLp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TabStat {
    Basic,
    AtLower,
    AtUpper,
    Free,
}

/// One simplex tableau row whose basic variable is a fractional integer:
/// the raw material for a Gomory mixed-integer cut. The row states the
/// identity `x_basic + Σ coeffs[j]·x[j] = const` over the affine
/// space `Ax + s = b` (nonbasic structural and slack columns only;
/// artificials are fixed at zero and omitted).
#[derive(Debug, Clone)]
pub(crate) struct FracRow {
    /// Value of the fractional basic integer variable at the vertex.
    pub beta: f64,
    /// Tableau coefficients `(B⁻¹A)[row][j]` of the nonbasic columns,
    /// indexed over structural (`< n`) and slack (`n..n+m`) variables.
    pub coeffs: Vec<(usize, f64)>,
}

/// An LP solve that also exposes the optimal tableau for cut separation.
#[derive(Debug, Clone)]
pub(crate) struct TableauLp {
    pub result: LpResult,
    pub basis: Option<Basis>,
    pub stats: LpStats,
    /// Rows with fractional basic integer variables, most fractional
    /// first; empty unless the result is `Optimal`.
    pub frac_rows: Vec<FracRow>,
    /// Status of every structural and slack variable (`n + m` entries).
    pub stat: Vec<TabStat>,
    /// Current value of every structural and slack variable.
    pub values: Vec<f64>,
}

/// Equilibration divisor of a constraint row — must match `LpMatrix::new`
/// so cut derivation can reconstruct a slack's definition in structural
/// variables: `s_i = rhs_i/σ_i − Σ (c/σ_i)·x`.
pub(crate) fn row_scale(con: &crate::model::Constraint) -> f64 {
    con.terms.iter().fold(1.0f64, |acc, &(_, c)| acc.max(c.abs()))
}

/// One solve's state over a borrowed [`LpMatrix`]: bounds, statuses,
/// basis rows, basic values, `B^-1` and the per-iteration buffers, all
/// taken from a [`Scratch`] and handed back by [`Simplex::into_scratch`].
struct Simplex<'a> {
    /// structural count
    n: usize,
    /// row count
    m: usize,
    /// structural + slack + artificial columns
    cols: Cols<'a>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// dense row-major m*m basis inverse
    binv: Vec<f64>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    stat: Vec<VStat>,
    /// variables that may never (re-)enter the basis (artificials in phase 2)
    banned: Vec<bool>,
    degenerate_run: usize,
    pivots: usize,
    refactorizations: usize,
    /// Use Bland's rule from the first pivot (robust restart mode).
    force_bland: bool,
    /// The cold solve's phase-1 and phase-2 objectives over every column.
    cost: Vec<f64>,
    /// Nonzeros of the scaled pivot row as `(column, value)` pairs, gathered
    /// once per pivot so every row update streams through them.
    eta: Vec<(usize, f64)>,
    /// Reused per-iteration buffers: dual prices `c_B B^-1` (`dual_prices`),
    /// the entering column `B^-1 A_j` (`ftran`), the right-hand-side
    /// residual (`fill_resid`) and its nonzeros (`refresh_values`).
    y: Vec<f64>,
    w: Vec<f64>,
    resid: Vec<f64>,
    resid_nz: Vec<(usize, f64)>,
}

impl<'a> Simplex<'a> {
    /// A solver over `mat` under `bounds`, its buffers taken from
    /// `scratch`: what `solve` and `solve_warm` read, they set first.
    fn new(mat: &'a LpMatrix, bounds: &[(f64, f64)], scratch: Scratch) -> Simplex<'a> {
        let Scratch {
            mut arts, mut lb, mut ub, binv, basis, xb, stat, banned, cost, eta, y, w, resid, resid_nz,
        } = scratch;
        arts.clear();
        lb.clear();
        ub.clear();
        for &(l, u) in bounds.iter().chain(&mat.slack_bounds) {
            lb.push(l);
            ub.push(u);
        }
        debug_assert!(
            lb[..mat.n].iter().all(|l| l.is_finite()),
            "structural lower bounds must be finite"
        );
        Simplex {
            n: mat.n,
            m: mat.m,
            cols: Cols { mat, arts },
            lb,
            ub,
            binv,
            basis,
            xb,
            stat,
            banned,
            degenerate_run: 0,
            pivots: 0,
            refactorizations: 0,
            force_bland: false,
            cost,
            eta,
            y,
            w,
            resid,
            resid_nz,
        }
    }

    /// Hand the buffers back, for the workspace's next solve.
    fn into_scratch(self) -> Scratch {
        let Simplex {
            cols, lb, ub, binv, basis, xb, stat, banned, cost, eta, y, w, resid, resid_nz, ..
        } = self;
        let arts = cols.arts;
        Scratch { arts, lb, ub, binv, basis, xb, stat, banned, cost, eta, y, w, resid, resid_nz }
    }

    /// A fresh solver over the same matrix and these buffers.
    fn restart(self, bounds: &[(f64, f64)]) -> Simplex<'a> {
        let mat = self.mat();
        Simplex::new(mat, bounds, self.into_scratch())
    }

    fn mat(&self) -> &'a LpMatrix {
        self.cols.mat
    }

    /// Initial nonbasic status for a variable given its bounds.
    fn rest_status(lb: f64, ub: f64) -> VStat {
        if lb.is_finite() {
            VStat::AtLower
        } else if ub.is_finite() {
            VStat::AtUpper
        } else {
            VStat::Free
        }
    }

    fn solve(&mut self) -> Result<LpResult, LpError> {
        let mat = self.mat();
        let n = self.n;
        let m = self.m;
        let nv = n + m;
        self.stat.clear();
        self.stat.extend((0..nv).map(|j| Self::rest_status(self.lb[j], self.ub[j])));
        self.banned.clear();
        self.banned.resize(nv, false);
        set_identity(&mut self.binv, m);
        self.basis.clear();
        self.basis.extend(n..nv);
        self.xb.clear();
        self.xb.resize(m, 0.0);

        // Slack basis values: s_i = b_i - A_i * v_N (structural resting values).
        self.fill_resid(false);
        // Slack starts basic; detect rows whose slack violates its bounds
        // and patch them with artificial variables.
        for i in 0..m {
            let s = n + i;
            let v = self.resid[i];
            if v >= self.lb[s] - FEAS_TOL && v <= self.ub[s] + FEAS_TOL {
                self.stat[s] = VStat::Basic(i);
                self.xb[i] = v;
            } else {
                // clamp slack to nearest bound, make it nonbasic there
                let beta = if v < self.lb[s] { self.lb[s] } else { self.ub[s] };
                self.stat[s] = if beta == self.lb[s] { VStat::AtLower } else { VStat::AtUpper };
                let violation = v - beta;
                let g = if violation >= 0.0 { 1.0 } else { -1.0 };
                let a = self.cols.len();
                self.cols.arts.push((i, g));
                // The basis column for this row is now `g`, not the slack's
                // +1: keep B^-1 consistent (B is diagonal at this point).
                self.binv[i * m + i] = 1.0 / g;
                self.lb.push(0.0);
                self.ub.push(f64::INFINITY);
                self.stat.push(VStat::Basic(i));
                self.banned.push(false);
                self.basis[i] = a;
                self.xb[i] = violation.abs();
            }
        }

        let mut cost = std::mem::take(&mut self.cost);
        if !self.cols.arts.is_empty() {
            // Phase 1: maximize -(sum of artificials).
            cost.clear();
            cost.resize(nv, 0.0);
            cost.resize(self.cols.len(), -1.0);
            self.run(&cost, false)?;
            let infeas: f64 = (nv..self.cols.len()).map(|a| self.var_value(a).max(0.0)).sum();
            if infeas > 1e-6 {
                self.cost = cost;
                return Ok(LpResult::Infeasible);
            }
            // Drive artificials out of the basis where possible; ban all of
            // them from phase 2 either way (fix bounds to [0,0]).
            for a in nv..self.cols.len() {
                if let VStat::Basic(r) = self.stat[a] {
                    self.pivot_out_artificial(a, r)?;
                }
            }
            for a in nv..self.cols.len() {
                self.banned[a] = true;
                self.lb[a] = 0.0;
                self.ub[a] = 0.0;
                if !matches!(self.stat[a], VStat::Basic(_)) {
                    self.stat[a] = VStat::AtLower;
                }
            }
            // Clear any residual infeasibility noise.
            self.refresh_values();
        }

        // Phase 2.
        cost.clear();
        cost.extend_from_slice(&mat.obj);
        cost.resize(self.cols.len(), 0.0);
        self.degenerate_run = 0;
        let outcome = self.run(&cost, false)?;
        self.cost = cost;
        Ok(match outcome {
            RunOutcome::Optimal => self.optimum(),
            RunOutcome::Unbounded => LpResult::Unbounded,
        })
    }

    /// The structural values at the current (optimal) basis and their
    /// objective, in the model's own sense.
    fn optimum(&self) -> LpResult {
        let mat = self.mat();
        let x: Vec<f64> = (0..self.n).map(|j| self.var_value(j)).collect();
        let mut obj_val = 0.0;
        for j in 0..self.n {
            obj_val += mat.obj[j] * x[j];
        }
        LpResult::Optimal { x, obj: mat.sense_sign * obj_val }
    }

    fn var_value(&self, j: usize) -> f64 {
        match self.stat[j] {
            VStat::Basic(r) => self.xb[r],
            VStat::AtLower => self.lb[j],
            VStat::AtUpper => self.ub[j],
            VStat::Free => 0.0,
        }
    }

    /// Degenerate pivot to remove a zero-valued basic artificial. If the
    /// whole row is zero over real columns the row is redundant and the
    /// artificial stays basic (fixed at zero).
    fn pivot_out_artificial(&mut self, art: usize, row: usize) -> Result<(), LpError> {
        let nv = self.n + self.m;
        for j in 0..nv {
            if matches!(self.stat[j], VStat::Basic(_)) || self.banned[j] {
                continue;
            }
            // (B^-1 A_j)[row]
            let prow = self.binv_row(row);
            let mut w_r = 0.0;
            for &(r, a) in &self.cols[j] {
                w_r += prow[r] * a;
            }
            if w_r.abs() > 1e-6 {
                self.ftran(j);
                self.do_pivot(j, row, self.var_value(j));
                // old artificial leaves at value ~0 -> rest at lower
                self.stat[art] = VStat::AtLower;
                return Ok(());
            }
        }
        Ok(())
    }

    /// Row `i` of the row-major `B^-1`.
    fn binv_row(&self, i: usize) -> &[f64] {
        &self.binv[i * self.m..(i + 1) * self.m]
    }

    /// `self.w = B^-1 * A_j` (see [`binv_times`]).
    fn ftran(&mut self, j: usize) {
        binv_times(&self.binv, self.m, &self.cols[j], &mut self.w);
    }

    /// `self.y = c_B^T B^-1` as one row-axpy per basic row with a nonzero
    /// cost. Branch-free inside the row: a zero entry adds `cb * 0.0` to an
    /// accumulator that started at `+0.0`, which changes no bit of it.
    fn dual_prices(&mut self, c: &[f64]) {
        self.y.clear();
        self.y.resize(self.m, 0.0);
        for (row, &b) in rows(&self.binv, self.m).zip(&self.basis) {
            let cb = c[b];
            if cb != 0.0 {
                for (yk, &v) in self.y.iter_mut().zip(row) {
                    *yk += cb * v;
                }
            }
        }
    }

    /// Replace basis entry in `row` with variable `j`, updating `B^-1` from
    /// the entering column in `self.w`.
    fn do_pivot(&mut self, j: usize, row: usize, enter_value: f64) {
        let m = self.m;
        let piv = self.w[row];
        debug_assert!(piv.abs() > PIVOT_TOL * 0.01, "pivot too small: {piv}");
        // binv[row] /= piv ; binv[i] -= w[i] * binv[row].
        scale_and_gather(&mut self.binv[row * m..(row + 1) * m], 1.0 / piv, &mut self.eta);
        eliminate(&mut self.binv, m, row, &self.w, &self.eta);
        let old = self.basis[row];
        debug_assert!(matches!(self.stat[old], VStat::Basic(r) if r == row));
        self.basis[row] = j;
        self.stat[j] = VStat::Basic(row);
        self.xb[row] = enter_value;
        self.pivots += 1;
    }

    /// `self.resid = b - Σ A_j v_j` over the nonbasic columns at their
    /// resting values, plus the basic columns at `x_B` when `with_basic`.
    fn fill_resid(&mut self, with_basic: bool) {
        let mut resid = std::mem::take(&mut self.resid);
        resid.clone_from(&self.mat().rhs);
        for (j, col) in self.cols.iter().enumerate() {
            if !with_basic && matches!(self.stat[j], VStat::Basic(_)) {
                continue;
            }
            let v = self.var_value(j);
            if v != 0.0 {
                for &(r, a) in col {
                    resid[r] -= a * v;
                }
            }
        }
        self.resid = resid;
    }

    /// Recompute basic values from the current nonbasic resting point:
    /// `x_B = B^-1 · resid` over the residual's nonzeros, gathered once, by
    /// the kernel `ftran` uses. A skipped term is `v · ±0.0 = ±0.0` (for
    /// finite `v`), and adding that to an accumulator that started at
    /// `+0.0` changes no bit of it, so every row's sum is the one over all
    /// `m` entries.
    fn refresh_values(&mut self) {
        self.fill_resid(false);
        self.resid_nz.clear();
        self.resid_nz.extend(self.resid.iter().copied().enumerate().filter(|&(_, r)| r != 0.0));
        binv_times(&self.binv, self.m, &self.resid_nz, &mut self.xb);
    }

    /// Rebuild `B^-1` from scratch by Gauss-Jordan elimination.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let m = self.m;
        debug_assert!(
            self.basis.iter().enumerate().all(|(i, &b)| self.stat[b] == VStat::Basic(i)),
            "basis rows and statuses disagree: {:?}",
            self.basis
        );
        debug_assert!(
            {
                let mut sorted = self.basis.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|p| p[0] != p[1])
            },
            "duplicate basis entries: {:?}",
            self.basis
        );
        debug_assert!(
            self.basis.iter().all(|&b| !self.cols[b].is_empty()),
            "basis variable with an empty column: {:?}",
            self.basis
        );
        // Dense B from basis columns. `seen` is the largest magnitude ever
        // written to `bmat` (and at least 1): an upper bound on the
        // whole-matrix scale the singularity test is relative to.
        let mut bmat = vec![0.0f64; m * m];
        let mut seen = 1.0f64;
        for (col, &j) in self.basis.iter().enumerate() {
            for &(r, a) in &self.cols[j] {
                bmat[r * m + col] = a;
                seen = seen.max(a.abs());
            }
        }
        let mut inv = identity(m);
        let (mut bnz, mut inz) = (Vec::new(), Vec::new());
        let mut factors = vec![0.0; m];
        // Gauss-Jordan with partial pivoting.
        for c in 0..m {
            let mut best = c;
            let mut best_abs = bmat[c * m + c].abs();
            for r in (c + 1)..m {
                let a = bmat[r * m + c].abs();
                if a > best_abs {
                    best = r;
                    best_abs = a;
                }
            }
            // Relative threshold: coefficients in compiler models span
            // ~1e4 (memory capacities), so judge singularity against the
            // remaining submatrix scale. A pivot that clears the bound
            // `seen` clears the exact scale too; only one that does not
            // pays for the whole-matrix fold, which gives the verdict.
            if best_abs < 1e-13 * seen {
                seen = bmat.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
                if best_abs < 1e-13 * seen {
                    return Err(LpError::Numerical("singular basis during refactorization".into()));
                }
            }
            if best != c {
                for mat in [&mut bmat, &mut inv] {
                    let (lo, hi) = mat.split_at_mut(best * m);
                    lo[c * m..(c + 1) * m].swap_with_slice(&mut hi[..m]);
                }
            }
            // Scale the pivot row of both matrices, then eliminate column
            // `c` from every other row: `bmat` over its pivot row's
            // nonzeros, `inv` through the pivot kernel.
            let pinv = 1.0 / bmat[c * m + c];
            scale_and_gather(&mut bmat[c * m..(c + 1) * m], pinv, &mut bnz);
            scale_and_gather(&mut inv[c * m..(c + 1) * m], pinv, &mut inz);
            seen = bnz.iter().fold(seen, |acc, &(_, v)| acc.max(v.abs()));
            for r in 0..m {
                let f = bmat[r * m + c];
                factors[r] = f;
                if r != c && f != 0.0 {
                    let brow = &mut bmat[r * m..(r + 1) * m];
                    sparse_axpy(brow, f, &bnz);
                    seen = bnz.iter().fold(seen, |acc, &(k, _)| acc.max(brow[k].abs()));
                }
            }
            eliminate(&mut inv, m, c, &factors, &inz);
        }
        self.binv = inv;
        self.refactorizations += 1;
        self.refresh_values();
        Ok(())
    }

    /// Run the simplex loop for a given (maximization) objective vector.
    /// `y_fresh` says `self.y` already holds `c_B·B⁻¹` for the current
    /// basis and inverse, so the first iteration need not price it again.
    fn run(&mut self, c: &[f64], y_fresh: bool) -> Result<RunOutcome, LpError> {
        let m = self.m;
        let max_iters = 20_000 + 200 * (self.n + m);
        let mut since_refresh = 0usize;
        for iter in 0..max_iters {
            if iter > 0 || !y_fresh {
                self.dual_prices(c);
            }
            // Pricing.
            let bland = self.force_bland || self.degenerate_run >= DEGENERATE_SWITCH;
            let mut enter: Option<(usize, f64, f64)> = None; // (j, |d|, dir)
            for j in 0..self.cols.len() {
                if self.banned[j] || matches!(self.stat[j], VStat::Basic(_)) {
                    continue;
                }
                let mut d = c[j];
                for &(r, a) in &self.cols[j] {
                    d -= self.y[r] * a;
                }
                let dir = match self.stat[j] {
                    VStat::AtLower if d > COST_TOL => 1.0,
                    VStat::AtUpper if d < -COST_TOL => -1.0,
                    VStat::Free if d > COST_TOL => 1.0,
                    VStat::Free if d < -COST_TOL => -1.0,
                    _ => continue,
                };
                if bland {
                    enter = Some((j, d.abs(), dir));
                    break;
                }
                match enter {
                    Some((_, best, _)) if d.abs() <= best => {}
                    _ => enter = Some((j, d.abs(), dir)),
                }
            }
            let Some((j, _, dir)) = enter else {
                return Ok(RunOutcome::Optimal);
            };

            self.ftran(j);
            // Ratio test: entering moves t >= 0 in direction `dir`; basic i
            // changes by -dir * t * w[i]. The pivot threshold is relative
            // to the column's magnitude so cancellation noise in long
            // elimination chains is not mistaken for a pivot.
            let w_scale = self.w.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
            let pivot_tol = PIVOT_TOL * w_scale;
            let own_span = if self.lb[j].is_finite() && self.ub[j].is_finite() {
                self.ub[j] - self.lb[j]
            } else {
                f64::INFINITY
            };
            let mut t_limit = own_span;
            let mut leave: Option<(usize, bool)> = None; // (row, hits_upper)
            for i in 0..m {
                let delta = -dir * self.w[i];
                if delta > pivot_tol {
                    let b = self.basis[i];
                    if self.ub[b].is_finite() {
                        let lim = ((self.ub[b] - self.xb[i]) / delta).max(0.0);
                        if lim < t_limit - 1e-12 {
                            t_limit = lim;
                            leave = Some((i, true));
                        }
                    }
                } else if delta < -pivot_tol {
                    let b = self.basis[i];
                    if self.lb[b].is_finite() {
                        let lim = ((self.lb[b] - self.xb[i]) / delta).max(0.0);
                        if lim < t_limit - 1e-12 {
                            t_limit = lim;
                            leave = Some((i, false));
                        }
                    }
                }
            }

            if t_limit.is_infinite() {
                return Ok(RunOutcome::Unbounded);
            }
            if t_limit < 1e-10 {
                self.degenerate_run += 1;
            } else {
                self.degenerate_run = 0;
            }

            let start = self.var_value(j);
            match leave {
                None => {
                    // Bound flip: entering runs to its opposite bound.
                    for i in 0..m {
                        self.xb[i] -= dir * t_limit * self.w[i];
                    }
                    self.stat[j] = match self.stat[j] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        s => s, // Free with finite span cannot happen
                    };
                }
                Some((row, hits_upper)) => {
                    for i in 0..m {
                        self.xb[i] -= dir * t_limit * self.w[i];
                    }
                    let leaving = self.basis[row];
                    let enter_value = start + dir * t_limit;
                    self.do_pivot(j, row, enter_value);
                    self.stat[leaving] = if hits_upper { VStat::AtUpper } else { VStat::AtLower };
                    since_refresh += 1;
                    if since_refresh >= REFRESH_PERIOD {
                        since_refresh = 0;
                        if self.basis_residual() > 1e-6 {
                            self.refactorize()?;
                        } else {
                            self.refresh_values();
                        }
                    }
                }
            }
        }
        Err(LpError::IterationLimit)
    }

    /// Snapshot the finished solve's basis for reuse by a warm start:
    /// statuses plus, for small-enough models, the row assignment and
    /// `B^-1`, which are moved out of the solver, not copied. `None` unless
    /// `result` is optimal, and when the basis is not representable — a
    /// redundant row left an artificial variable basic.
    fn take_basis_if_optimal(&mut self, result: &LpResult) -> Option<Basis> {
        let nv = self.n + self.m;
        if !matches!(result, LpResult::Optimal { .. }) || self.basis.iter().any(|&b| b >= nv) {
            return None;
        }
        let stat = self.stat[..nv]
            .iter()
            .map(|s| match s {
                VStat::Basic(_) => BStat::Basic,
                VStat::AtLower => BStat::AtLower,
                VStat::AtUpper => BStat::AtUpper,
                VStat::Free => BStat::Free,
            })
            .collect();
        let (rows, binv) = if self.m <= BINV_SNAPSHOT_MAX_ROWS {
            (std::mem::take(&mut self.basis), std::mem::take(&mut self.binv))
        } else {
            (Vec::new(), Vec::new())
        };
        Some(Basis { stat, rows, binv })
    }

    /// Statuses of the structural and slack variables for [`TableauLp`].
    fn tab_stats(&self) -> Vec<TabStat> {
        (0..self.n + self.m)
            .map(|j| match self.stat[j] {
                VStat::Basic(_) => TabStat::Basic,
                VStat::AtLower => TabStat::AtLower,
                VStat::AtUpper => TabStat::AtUpper,
                VStat::Free => TabStat::Free,
            })
            .collect()
    }

    /// Current values of the structural and slack variables.
    fn all_values(&self) -> Vec<f64> {
        (0..self.n + self.m).map(|j| self.var_value(j)).collect()
    }

    /// Extract tableau rows whose basic variable is a fractional integer
    /// structural variable, most fractional first (ties by row index).
    /// Nonbasic artificials are fixed at zero and never enter the rows.
    fn extract_frac_rows(&self, int_mask: &[bool], int_tol: f64, max_rows: usize) -> Vec<FracRow> {
        let (n, m) = (self.n, self.m);
        let nv = n + m;
        let mut cands: Vec<(f64, usize)> = (0..m)
            .filter_map(|i| {
                let b = self.basis[i];
                if b >= n || !int_mask[b] {
                    return None;
                }
                let v = self.xb[i];
                let f = v - v.floor();
                if f > int_tol && f < 1.0 - int_tol {
                    // score: distance from integrality, in [0, 0.5]
                    Some((0.5 - (f - 0.5).abs(), i))
                } else {
                    None
                }
            })
            .collect();
        cands.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        cands.truncate(max_rows);
        cands
            .into_iter()
            .map(|(_, i)| {
                let prow = self.binv_row(i);
                let mut coeffs = Vec::new();
                for j in 0..nv {
                    if matches!(self.stat[j], VStat::Basic(_)) || self.banned[j] {
                        continue;
                    }
                    let mut a = 0.0;
                    for &(r, c) in &self.cols[j] {
                        let p = prow[r];
                        if p != 0.0 {
                            a += p * c;
                        }
                    }
                    if a.abs() > 1e-12 {
                        coeffs.push((j, a));
                    }
                }
                FracRow { beta: self.xb[i], coeffs }
            })
            .collect()
    }

    /// Re-optimize from a caller-supplied basis with the bounded-variable
    /// dual simplex.
    ///
    /// Returns `Ok(None)` when the basis is unusable and the caller should
    /// fall back to the cold solve: wrong shape, wrong basic count,
    /// singular after refactorization, dual-infeasible (the basis was not
    /// optimal for this objective), a dual degeneracy stall, or the
    /// iteration cap. `Ok(Some(Infeasible))` is only returned after the
    /// initial dual-feasibility check passed, which makes the
    /// no-entering-candidate certificate sound.
    ///
    /// `moved_inv` is the snapshot's inverse when the caller took it out of
    /// `warm` to spare the copy; `None` copies `warm.binv`.
    fn solve_warm(
        &mut self,
        warm: &Basis,
        moved_inv: Option<Vec<f64>>,
    ) -> Result<Option<LpResult>, LpError> {
        let n = self.n;
        let m = self.m;
        let nv = n + m;
        if warm.stat.len() != nv {
            return Ok(None);
        }
        // Install statuses. When the snapshot carries its row assignment
        // and inverse (same model, bound-independent matrix), reuse them —
        // the install is then one O(m²) copy (or a move) plus a residual
        // check. Otherwise basic variables take rows in ascending index
        // order and one refactorization rebuilds B^-1.
        self.stat.clear();
        self.stat.resize(nv, VStat::Free);
        self.banned.clear();
        self.banned.resize(nv, false);
        self.basis.clear();
        let inv_len = moved_inv.as_ref().map_or(warm.binv.len(), Vec::len);
        let reuse_inv = warm.rows.len() == m
            && inv_len == m * m
            && warm.rows.iter().all(|&j| j < nv && warm.stat[j] == BStat::Basic);
        if reuse_inv {
            for (i, &j) in warm.rows.iter().enumerate() {
                if matches!(self.stat[j], VStat::Basic(_)) {
                    return Ok(None); // duplicate row entry: corrupt snapshot
                }
                self.stat[j] = VStat::Basic(i);
            }
            self.basis.clone_from(&warm.rows);
        }
        for j in 0..nv {
            if matches!(self.stat[j], VStat::Basic(_)) {
                continue;
            }
            self.stat[j] = match warm.stat[j] {
                BStat::Basic => {
                    if reuse_inv || self.basis.len() == m {
                        // With a row assignment every Basic entry is
                        // already placed; a leftover means a mismatch.
                        return Ok(None);
                    }
                    self.basis.push(j);
                    VStat::Basic(self.basis.len() - 1)
                }
                // A recorded resting side can be incompatible with the
                // node's bounds only in pathological callers; snap to a
                // valid resting status rather than reject.
                BStat::AtLower if self.lb[j].is_finite() => VStat::AtLower,
                BStat::AtUpper if self.ub[j].is_finite() => VStat::AtUpper,
                _ => Self::rest_status(self.lb[j], self.ub[j]),
            };
        }
        if self.basis.len() != m {
            return Ok(None);
        }
        self.xb.clear();
        self.xb.resize(m, 0.0);
        if reuse_inv {
            match moved_inv {
                Some(inv) => self.binv = inv,
                None => self.binv.clone_from(&warm.binv),
            }
            self.refresh_values();
            // A residual means the inverse does not match this model's
            // matrix (foreign or numerically stale snapshot): rebuild.
            if self.basis_residual() > 1e-6 && self.refactorize().is_err() {
                return Ok(None);
            }
        } else if self.refactorize().is_err() {
            return Ok(None);
        }

        // Verify dual feasibility under the phase-2 objective. The parent
        // optimum satisfies this by construction; a stale or foreign basis
        // may not, and the Infeasible certificate below is only sound when
        // it does.
        let obj = &self.mat().obj;
        self.dual_prices(obj);
        for j in 0..nv {
            if matches!(self.stat[j], VStat::Basic(_)) {
                continue;
            }
            let mut d = obj[j];
            for &(r, a) in &self.cols[j] {
                d -= self.y[r] * a;
            }
            let bad = match self.stat[j] {
                VStat::AtLower => d > DUAL_FEAS_TOL,
                VStat::AtUpper => d < -DUAL_FEAS_TOL,
                VStat::Free => d.abs() > DUAL_FEAS_TOL,
                VStat::Basic(_) => false,
            };
            if bad {
                return Ok(None);
            }
        }

        let max_iters = 20_000 + 200 * nv;
        let mut since_refresh = 0usize;
        let mut degenerate = 0usize;
        // `y` holds the prices of the basis just checked until the first
        // pivot changes it.
        let mut y_fresh = true;
        for _iter in 0..max_iters {
            // Leaving: the basic variable with the largest bound violation.
            // `viol` is signed — positive above the upper bound, negative
            // below the lower bound. Ties keep the first (lowest) row.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..m {
                let b = self.basis[i];
                let v = self.xb[i];
                let viol = if v > self.ub[b] + FEAS_TOL {
                    v - self.ub[b]
                } else if v < self.lb[b] - FEAS_TOL {
                    v - self.lb[b]
                } else {
                    continue;
                };
                match leave {
                    Some((_, best)) if viol.abs() <= best.abs() => {}
                    _ => leave = Some((i, viol)),
                }
            }
            let Some((row, viol)) = leave else {
                // Primal feasible again: the primal loop certifies
                // optimality (usually zero pivots — we kept dual
                // feasibility throughout) and cleans up tolerance drift.
                return Ok(Some(match self.run(obj, y_fresh)? {
                    RunOutcome::Optimal => self.optimum(),
                    RunOutcome::Unbounded => LpResult::Unbounded,
                }));
            };

            // Fresh dual prices for this basis, then price only
            // direction-feasible candidates.
            if !y_fresh {
                self.dual_prices(obj);
            }
            y_fresh = false;
            // Entering: dual ratio test. alpha_j = (B^-1 A_j)[row]; the
            // candidate must move the leaving variable toward its violated
            // bound without leaving its own resting side, and the minimal
            // |d_j / alpha_j| keeps every other reduced cost dual-feasible.
            let prow = self.binv_row(row);
            let mut enter: Option<(usize, f64)> = None; // (j, |theta|)
            for j in 0..nv {
                if matches!(self.stat[j], VStat::Basic(_)) || self.banned[j] {
                    continue;
                }
                let mut alpha = 0.0;
                for &(r, a) in &self.cols[j] {
                    alpha += prow[r] * a;
                }
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let ok = match self.stat[j] {
                    VStat::AtLower => viol > 0.0 && alpha > 0.0 || viol < 0.0 && alpha < 0.0,
                    VStat::AtUpper => viol > 0.0 && alpha < 0.0 || viol < 0.0 && alpha > 0.0,
                    VStat::Free => true,
                    VStat::Basic(_) => false,
                };
                if !ok {
                    continue;
                }
                let mut d = obj[j];
                for &(r, a) in &self.cols[j] {
                    d -= self.y[r] * a;
                }
                let theta = (d / alpha).abs();
                match enter {
                    Some((_, best)) if theta >= best => {}
                    _ => enter = Some((j, theta)),
                }
            }
            let Some((q, theta)) = enter else {
                // No column can repair the violated row while keeping dual
                // feasibility: the node is primal infeasible.
                return Ok(Some(LpResult::Infeasible));
            };
            if theta < 1e-10 {
                degenerate += 1;
                if degenerate > DUAL_DEGENERATE_LIMIT {
                    return Ok(None);
                }
            } else {
                degenerate = 0;
            }

            self.ftran(q);
            let alpha_q = self.w[row];
            if alpha_q.abs() <= PIVOT_TOL {
                return Ok(None);
            }
            // The leaving variable moves exactly to its violated bound:
            // d(xb[row]) = -alpha_q * dx = -viol.
            let dx = viol / alpha_q;
            let enter_value = self.var_value(q) + dx;
            for i in 0..m {
                if i != row {
                    self.xb[i] -= dx * self.w[i];
                }
            }
            let leaving = self.basis[row];
            self.do_pivot(q, row, enter_value);
            self.stat[leaving] = if viol > 0.0 { VStat::AtUpper } else { VStat::AtLower };
            since_refresh += 1;
            if since_refresh >= REFRESH_PERIOD {
                since_refresh = 0;
                if self.basis_residual() > 1e-6 {
                    if self.refactorize().is_err() {
                        return Ok(None);
                    }
                } else {
                    self.refresh_values();
                }
            }
        }
        // Iteration cap: the cold path is still available.
        Ok(None)
    }

    /// Residual ||B x_B + A_N v_N - b||_inf as a numerical health check.
    fn basis_residual(&mut self) -> f64 {
        self.fill_resid(true);
        self.resid.iter().fold(0.0f64, |acc, r| acc.max(r.abs()))
    }
}

/// The rows of a row-major matrix with `m` columns (none when `m == 0`,
/// where `chunks_exact(0)` would panic).
fn rows(mat: &[f64], m: usize) -> std::slice::ChunksExact<'_, f64> {
    mat.chunks_exact(m.max(1))
}

/// `out = B^-1 · v` for a sparse `v` given as `(index, value)` pairs, one
/// entry per row of the row-major `m`×`m` `binv`: each `out[i]` sums
/// `binv[i][k] · v_k` over the pairs in their order, from `+0.0`. Four rows
/// share a pass over the pairs, one accumulator each, so the pairs are
/// loaded once per four rows. Branch-free like `dual_prices`: these inner
/// loops are a few entries long and a data-dependent zero test in them
/// mispredicts.
fn binv_times(binv: &[f64], m: usize, v: &[(usize, f64)], out: &mut Vec<f64>) {
    let m = m.max(1);
    out.clear();
    let mut quads = binv.chunks_exact(4 * m);
    for quad in quads.by_ref() {
        let (r0, rest) = quad.split_at(m);
        let (r1, rest) = rest.split_at(m);
        let (r2, r3) = rest.split_at(m);
        let mut acc = [0.0; 4];
        for &(k, a) in v {
            acc[0] += r0[k] * a;
            acc[1] += r1[k] * a;
            acc[2] += r2[k] * a;
            acc[3] += r3[k] * a;
        }
        out.extend_from_slice(&acc);
    }
    out.extend(rows(quads.remainder(), m).map(|row| {
        let mut acc = 0.0;
        for &(k, a) in v {
            acc += row[k] * a;
        }
        acc
    }));
}

/// `row *= s`, gathering the nonzero results into `nz` as `(column, value)`.
fn scale_and_gather(row: &mut [f64], s: f64, nz: &mut Vec<(usize, f64)>) {
    nz.clear();
    for (k, v) in row.iter_mut().enumerate() {
        *v *= s;
        if *v != 0.0 {
            nz.push((k, *v));
        }
    }
}

/// `row[k] -= f * v` over the gathered nonzeros `(k, v)` of a pivot row;
/// its exact zeros would only subtract `f * 0.0`.
fn sparse_axpy(row: &mut [f64], f: f64, nz: &[(usize, f64)]) {
    for &(k, v) in nz {
        row[k] -= f * v;
    }
}

/// A scaled pivot row with at least `m / DENSE_ROW_DIVISOR` nonzeros
/// updates whole target rows at vector width; a sparser one updates only
/// its gathered nonzeros. Measured on the joint and the four apps: `m / 2`
/// buys almost nothing on the joint, `m / 8` and `m / 16` are level with
/// `m / 4`, and an always-dense update costs the root-solved apps 5–15 %
/// (EXPERIMENTS.md, "Simplex row updates at vector width"). Of the flat
/// region, `m / 4` sends the fewest pivots down the dense path.
const DENSE_ROW_DIVISOR: usize = 4;

/// `mat[i] -= factors[i] * mat[row]` for every row `i != row` of the
/// row-major `mat` whose factor is nonzero. `mat[row]` is the scaled pivot
/// row and `nz` its nonzeros as `scale_and_gather` gathered them; their
/// count picks the path, once per pivot. The dense path adds only
/// `x -= f * ±0.0` at the pivot row's zeros, so both paths give the same
/// bits up to the sign of a zero, and a CPU without AVX2 takes the sparse
/// path whatever the density.
fn eliminate(mat: &mut [f64], m: usize, row: usize, factors: &[f64], nz: &[(usize, f64)]) {
    if nz.len() * DENSE_ROW_DIVISOR >= m {
        if let Some(dense) = dense_rows_avx2() {
            return dense(mat, m, row, factors);
        }
    }
    sparse_rows(mat, m, row, factors, nz);
}

/// The pivot row `row` of the row-major `mat`, and every other row paired
/// with its factor where that is nonzero.
fn split_pivot<'a>(
    mat: &'a mut [f64],
    m: usize,
    row: usize,
    factors: &'a [f64],
) -> (&'a [f64], impl Iterator<Item = (&'a mut [f64], f64)>) {
    let (above, rest) = mat.split_at_mut(row * m);
    let (pivot, below) = rest.split_at_mut(m);
    let targets = above.chunks_exact_mut(m).zip(&factors[..row])
        .chain(below.chunks_exact_mut(m).zip(&factors[row + 1..]))
        .filter_map(|(target, &f)| (f != 0.0).then_some((target, f)));
    (pivot, targets)
}

/// The sparse path: each target row is updated at the pivot row's
/// gathered nonzeros only.
fn sparse_rows(mat: &mut [f64], m: usize, row: usize, factors: &[f64], nz: &[(usize, f64)]) {
    for (target, f) in split_pivot(mat, m, row, factors).1 {
        sparse_axpy(target, f, nz);
    }
}

/// The dense path's body: each target row is updated over its whole
/// length, a contiguous loop the compiler vectorizes (a product, then a
/// difference: Rust never contracts them into an FMA). Always inlined, so
/// that `dense_rows_avx2` compiles it for AVX2.
#[inline(always)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn dense_rows(mat: &mut [f64], m: usize, row: usize, factors: &[f64]) {
    let (pivot, targets) = split_pivot(mat, m, row, factors);
    for (target, f) in targets {
        for (x, &p) in target.iter_mut().zip(pivot) {
            *x -= f * p;
        }
    }
}

/// `mat, m, row, factors`, as `dense_rows` takes them.
type DenseRows = fn(&mut [f64], usize, usize, &[f64]);

/// `dense_rows` compiled for AVX2 when this CPU has it (the standard
/// library detects it once and caches the answer); `None` on other x86
/// CPUs and other architectures.
fn dense_rows_avx2() -> Option<DenseRows> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        fn avx2(mat: &mut [f64], m: usize, row: usize, factors: &[f64]) {
            dense_rows(mat, m, row, factors);
        }
        // SAFETY: calling `avx2` requires a CPU with AVX2, and this
        // wrapper is handed out only after the run-time check above
        // found it.
        let kernel: DenseRows = |mat, m, row, factors| unsafe { avx2(mat, m, row, factors) };
        return Some(kernel);
    }
    None
}

enum RunOutcome {
    Optimal,
    Unbounded,
}

fn identity(m: usize) -> Vec<f64> {
    let mut id = Vec::new();
    set_identity(&mut id, m);
    id
}

/// Make `mat` the `m`×`m` identity, in place.
fn set_identity(mat: &mut Vec<f64>, m: usize) {
    mat.clear();
    mat.resize(m * m, 0.0);
    for i in 0..m {
        mat[i * m + i] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    fn bounds_of(model: &Model) -> Vec<(f64, f64)> {
        model.vars().iter().map(|v| (v.lb, v.ub)).collect()
    }

    fn optimal(model: &Model) -> (Vec<f64>, f64) {
        match solve_lp(model, &bounds_of(model)).expect("lp solve") {
            LpResult::Optimal { x, obj } => (x, obj),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn basic_maximization() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> x=4, y=0, obj 12
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.le("c1", LinExpr::from(x) + LinExpr::from(y), 4.0);
        m.le("c2", LinExpr::from(x) + LinExpr::term(y, 3.0), 6.0);
        m.set_objective(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Sense::Maximize);
        let (x_vals, obj) = optimal(&m);
        assert!((obj - 12.0).abs() < 1e-6, "obj = {obj}");
        assert!((x_vals[0] - 4.0).abs() < 1e-6);
        assert!(x_vals[1].abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2  -> x=10 (cheapest), y=0? cost 20
        // vs x=2,y=8 cost 28 -> optimum x=10,y=0 obj 20
        let mut m = Model::new();
        let x = m.continuous("x", 2.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.ge("demand", LinExpr::from(x) + LinExpr::from(y), 10.0);
        m.set_objective(LinExpr::term(x, 2.0) + LinExpr::term(y, 3.0), Sense::Minimize);
        let (x_vals, obj) = optimal(&m);
        assert!((obj - 20.0).abs() < 1e-6, "obj = {obj}");
        assert!((x_vals[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + 2y == 8, x <= 4  -> x=4, y=2, obj 6
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 4.0);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.eq("balance", LinExpr::from(x) + LinExpr::term(y, 2.0), 8.0);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y), Sense::Maximize);
        let (x_vals, obj) = optimal(&m);
        assert!((obj - 6.0).abs() < 1e-6, "obj = {obj}");
        assert!((x_vals[0] - 4.0).abs() < 1e-6);
        assert!((x_vals[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 1.0);
        m.ge("too_big", LinExpr::from(x), 5.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let r = solve_lp(&m, &bounds_of(&m)).unwrap();
        assert!(matches!(r, LpResult::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.ge("floor", LinExpr::from(x) - LinExpr::from(y), 0.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let r = solve_lp(&m, &bounds_of(&m)).unwrap();
        assert!(matches!(r, LpResult::Unbounded));
    }

    #[test]
    fn respects_upper_bounds_via_flip() {
        // max x + y with x,y in [0, 3] and x + y <= 5 -> 5
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 3.0);
        let y = m.continuous("y", 0.0, 3.0);
        m.le("cap", LinExpr::from(x) + LinExpr::from(y), 5.0);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y), Sense::Maximize);
        let (_, obj) = optimal(&m);
        assert!((obj - 5.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5  -> -5
        let mut m = Model::new();
        let x = m.continuous("x", -5.0, 10.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let (x_vals, obj) = optimal(&m);
        assert!((obj + 5.0).abs() < 1e-6);
        assert!((x_vals[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate corner: several constraints meet at the optimum.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, f64::INFINITY);
        let y = m.continuous("y", 0.0, f64::INFINITY);
        m.le("a", LinExpr::from(x) + LinExpr::from(y), 1.0);
        m.le("b", LinExpr::from(x), 1.0);
        m.le("c", LinExpr::from(y), 1.0);
        m.le("d", LinExpr::term(x, 2.0) + LinExpr::from(y), 2.0);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y), Sense::Maximize);
        let (_, obj) = optimal(&m);
        assert!((obj - 1.0).abs() < 1e-6);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's example, known to cycle under naive Dantzig without
        // safeguards. min -0.75x4 + 150x5 - 0.02x6 + 6x7 (standard form).
        let mut m = Model::new();
        let x4 = m.continuous("x4", 0.0, f64::INFINITY);
        let x5 = m.continuous("x5", 0.0, f64::INFINITY);
        let x6 = m.continuous("x6", 0.0, f64::INFINITY);
        let x7 = m.continuous("x7", 0.0, f64::INFINITY);
        m.le(
            "r1",
            LinExpr::term(x4, 0.25) - LinExpr::term(x5, 60.0) - LinExpr::term(x6, 1.0 / 25.0)
                + LinExpr::term(x7, 9.0),
            0.0,
        );
        m.le(
            "r2",
            LinExpr::term(x4, 0.5) - LinExpr::term(x5, 90.0) - LinExpr::term(x6, 1.0 / 50.0)
                + LinExpr::term(x7, 3.0),
            0.0,
        );
        m.le("r3", LinExpr::from(x6), 1.0);
        m.set_objective(
            LinExpr::term(x4, -0.75) + LinExpr::term(x5, 150.0) - LinExpr::term(x6, 0.02)
                + LinExpr::term(x7, 6.0),
            Sense::Minimize,
        );
        let (_, obj) = optimal(&m);
        assert!((obj + 0.05).abs() < 1e-6, "obj = {obj}");
    }

    #[test]
    fn fixed_variables_by_bounds() {
        // Branch-and-bound style override: fix x to 1 by bounds.
        let mut m = Model::new();
        let x = m.binary("x");
        let y = m.binary("y");
        m.le("cap", LinExpr::from(x) + LinExpr::from(y), 1.0);
        m.set_objective(LinExpr::from(x) + LinExpr::term(y, 2.0), Sense::Maximize);
        let r = solve_lp(&m, &[(1.0, 1.0), (0.0, 1.0)]).unwrap();
        match r {
            LpResult::Optimal { x: vals, obj } => {
                assert!((vals[0] - 1.0).abs() < 1e-6);
                assert!(vals[1].abs() < 1e-6);
                assert!((obj - 1.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn redundant_equality_rows() {
        // Two identical equalities: phase 1 must handle the redundant row.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 10.0);
        let y = m.continuous("y", 0.0, 10.0);
        m.eq("e1", LinExpr::from(x) + LinExpr::from(y), 5.0);
        m.eq("e2", LinExpr::from(x) + LinExpr::from(y), 5.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let (x_vals, obj) = optimal(&m);
        assert!((obj - 5.0).abs() < 1e-6);
        assert!((x_vals[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn larger_random_like_lp() {
        // Transportation-flavoured LP with a known optimum.
        // min sum c_ij x_ij ; supplies 20/30, demands 10/25/15.
        let mut m = Model::new();
        let c = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
        let mut xs = Vec::new();
        for i in 0..2 {
            for j in 0..3 {
                xs.push(m.continuous(format!("x{i}{j}"), 0.0, f64::INFINITY));
            }
        }
        m.le("s0", LinExpr::from(xs[0]) + LinExpr::from(xs[1]) + LinExpr::from(xs[2]), 20.0);
        m.le("s1", LinExpr::from(xs[3]) + LinExpr::from(xs[4]) + LinExpr::from(xs[5]), 30.0);
        m.ge("d0", LinExpr::from(xs[0]) + LinExpr::from(xs[3]), 10.0);
        m.ge("d1", LinExpr::from(xs[1]) + LinExpr::from(xs[4]), 25.0);
        m.ge("d2", LinExpr::from(xs[2]) + LinExpr::from(xs[5]), 15.0);
        let mut obj = LinExpr::zero();
        for i in 0..2 {
            for j in 0..3 {
                obj += LinExpr::term(xs[i * 3 + j], c[i][j]);
            }
        }
        m.set_objective(obj, Sense::Minimize);
        let (x_vals, obj) = optimal(&m);
        // LP optimum: x01=20 (6*20=120), x10=10 (90), x11=5 (60), x12=15 (195) = 465
        assert!((obj - 465.0).abs() < 1e-5, "obj = {obj}");
        let total: f64 = x_vals.iter().sum();
        assert!((total - 50.0).abs() < 1e-5);
    }
}

#[cfg(test)]
mod warm_tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn knapsack() -> (Model, Vec<(f64, f64)>) {
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
        let bounds = m.vars().iter().map(|v| (v.lb, v.ub)).collect();
        (m, bounds)
    }

    #[test]
    fn warm_resolve_matches_cold_after_branching() {
        let (m, root_bounds) = knapsack();
        let root = solve_lp_ext(&m, &root_bounds, None).unwrap();
        assert!(matches!(root.result, LpResult::Optimal { .. }));
        let basis = root.basis.expect("root basis");
        assert!(!root.stats.warm && !root.stats.fell_back);

        // Branch every variable both ways; warm must agree with cold.
        for j in 0..5 {
            for v in [0.0, 1.0] {
                let mut b = root_bounds.clone();
                b[j] = (v, v);
                let warm = solve_lp_ext(&m, &b, Some(&basis)).unwrap();
                let cold = solve_lp(&m, &b).unwrap();
                match (&warm.result, &cold) {
                    (
                        LpResult::Optimal { obj: ow, .. },
                        LpResult::Optimal { obj: oc, .. },
                    ) => assert!((ow - oc).abs() < 1e-6, "x{j}={v}: warm {ow} vs cold {oc}"),
                    (LpResult::Infeasible, LpResult::Infeasible) => {}
                    other => panic!("x{j}={v}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn warm_detects_infeasible_child() {
        let (m, root_bounds) = knapsack();
        let basis = solve_lp_ext(&m, &root_bounds, None).unwrap().basis.unwrap();
        // Fixing x0, x2, x4 to 1 and x3 to 0 needs weight 11 > 10.
        let b = vec![(1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0)];
        let warm = solve_lp_ext(&m, &b, Some(&basis)).unwrap();
        assert!(matches!(warm.result, LpResult::Infeasible), "{:?}", warm.result);
    }

    #[test]
    fn dual_infeasible_basis_falls_back_to_cold() {
        // max x s.t. x <= 4. The basis claiming x nonbasic-at-lower with
        // the slack basic is primal feasible but NOT dual feasible (x has
        // positive reduced cost), so the warm path must fall back and
        // still find the optimum.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, f64::INFINITY);
        m.le("cap", LinExpr::from(x), 4.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let bad = Basis {
            stat: vec![BStat::AtLower, BStat::Basic],
            rows: Vec::new(),
            binv: Vec::new(),
        };
        let out = solve_lp_ext(&m, &[(0.0, f64::INFINITY)], Some(&bad)).unwrap();
        assert!(out.stats.fell_back, "warm path should have fallen back");
        assert!(!out.stats.warm);
        match out.result {
            LpResult::Optimal { obj, .. } => assert!((obj - 4.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_shape_basis_falls_back_without_error() {
        let (m, bounds) = knapsack();
        let bad = Basis { stat: vec![BStat::Basic; 2], rows: Vec::new(), binv: Vec::new() };
        let out = solve_lp_ext(&m, &bounds, Some(&bad)).unwrap();
        assert!(out.stats.fell_back);
        assert!(matches!(out.result, LpResult::Optimal { .. }));
    }

    #[test]
    fn warm_solve_counts_work() {
        let (m, root_bounds) = knapsack();
        let root = solve_lp_ext(&m, &root_bounds, None).unwrap();
        assert!(root.stats.pivots > 0, "cold solve should pivot");
        let basis = root.basis.unwrap();
        let mut b = root_bounds.clone();
        b[0] = (0.0, 0.0);
        let warm = solve_lp_ext(&m, &b, Some(&basis)).unwrap();
        assert!(warm.stats.warm);
        // The snapshot carried the parent's inverse, so the install is a
        // copy + residual check — no from-scratch refactorization.
        assert_eq!(warm.stats.refactorizations, 0);
        assert!(warm.stats.pivots <= root.stats.pivots);
    }

    #[test]
    fn statuses_only_basis_still_warm_starts() {
        // A snapshot without the captured inverse (e.g. a model above the
        // capture cap) must still warm-start via one refactorization.
        let (m, root_bounds) = knapsack();
        let root = solve_lp_ext(&m, &root_bounds, None).unwrap();
        let mut basis = root.basis.unwrap();
        basis.rows.clear();
        basis.binv.clear();
        let mut b = root_bounds.clone();
        b[0] = (0.0, 0.0);
        let warm = solve_lp_ext(&m, &b, Some(&basis)).unwrap();
        assert!(warm.stats.warm, "statuses alone must suffice");
        assert!(warm.stats.refactorizations >= 1);
        let cold = solve_lp(&m, &b).unwrap();
        match (&warm.result, &cold) {
            (LpResult::Optimal { obj: ow, .. }, LpResult::Optimal { obj: oc, .. }) => {
                assert!((ow - oc).abs() < 1e-6)
            }
            other => panic!("{other:?}"),
        }
    }

    /// Three knapsack rows over six binaries: a basis with a 3x3 inverse.
    fn three_rows() -> (Model, Vec<(f64, f64)>) {
        let mut m = Model::new();
        let xs: Vec<_> = (0..6).map(|i| m.binary(format!("x{i}"))).collect();
        let rows = [[4.0, 3.0, 5.0, 6.0, 2.0, 1.0], [1.0, 5.0, 2.0, 3.0, 6.0, 4.0], [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]];
        for (r, w) in rows.iter().enumerate() {
            m.le(format!("cap{r}"), LinExpr::sum(xs.iter().zip(w).map(|(&x, &c)| LinExpr::term(x, c))), 9.5);
        }
        let values = [7.0, 4.0, 9.0, 10.0, 3.0, 5.0];
        m.set_objective(LinExpr::sum(xs.iter().zip(values).map(|(&x, c)| LinExpr::term(x, c))), Sense::Maximize);
        let bounds = m.vars().iter().map(|v| (v.lb, v.ub)).collect();
        (m, bounds)
    }

    /// The snapshot owns the finished solver's inverse (moved, not copied);
    /// shared behind an `Arc` as between a node's two children, it must
    /// install into both, leave itself untouched, and take both to the
    /// cold optimum.
    #[test]
    fn moved_out_snapshot_warm_starts_two_children() {
        let (m, root_bounds) = three_rows();
        let root = solve_lp_ext(&m, &root_bounds, None).unwrap();
        let basis = std::sync::Arc::new(root.basis.expect("root basis"));
        assert_eq!(basis.rows.len(), 3);
        assert_eq!(basis.binv.len(), 9, "the snapshot carries the inverse");
        let before = Basis::clone(&basis);
        for (j, v) in [(0, 0.0), (3, 1.0)] {
            let mut b = root_bounds.clone();
            b[j] = (v, v);
            let warm = solve_lp_ext(&m, &b, Some(&basis)).unwrap();
            assert!(warm.stats.warm && !warm.stats.fell_back, "x{j}={v}");
            assert_eq!(warm.stats.refactorizations, 0, "install is a copy of the shared inverse");
            match (&warm.result, solve_lp(&m, &b).unwrap()) {
                (LpResult::Optimal { obj: ow, .. }, LpResult::Optimal { obj: oc, .. }) => {
                    assert!((ow - oc).abs() < 1e-6, "x{j}={v}: warm {ow} vs cold {oc}")
                }
                other => panic!("x{j}={v}: {other:?}"),
            }
        }
        assert_eq!(*basis, before, "children must not disturb the shared snapshot");
    }

    /// A taken install moves the snapshot's inverse into the solver: same
    /// solve as the copying install, bit for bit, and what is left behind
    /// (statuses, row order, no inverse) still warm-starts, at the price
    /// of one refactorization.
    #[test]
    fn taken_install_equals_the_copy_and_leaves_a_usable_snapshot() {
        let (m, root_bounds) = three_rows();
        let mut basis = solve_lp_ext(&m, &root_bounds, None).unwrap().basis.expect("root basis");
        let mut b = root_bounds.clone();
        b[3] = (1.0, 1.0);
        let copied = solve_lp_ext(&m, &b, Some(&basis)).unwrap();
        let taken = LpWorkspace::new(&m).solve_take(&b, &mut basis).unwrap();
        assert!(taken.stats.warm && !taken.stats.fell_back);
        assert_eq!(taken.stats, copied.stats);
        match (&taken.result, &copied.result) {
            (LpResult::Optimal { x: xt, obj: ot }, LpResult::Optimal { x: xc, obj: oc }) => {
                assert_eq!((xt, ot), (xc, oc));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(taken.basis, copied.basis);
        assert!(basis.binv.is_empty(), "the inverse moved out");
        assert_eq!(basis.rows.len(), 3);

        let again = LpWorkspace::new(&m).solve_take(&b, &mut basis).unwrap();
        assert!(again.stats.warm && !again.stats.fell_back);
        assert_eq!(again.stats.refactorizations, 1, "no inverse left: one rebuild");
        match (&again.result, &copied.result) {
            (LpResult::Optimal { obj: a, .. }, LpResult::Optimal { obj: c, .. }) => {
                assert!((a - c).abs() < 1e-9, "{a} vs {c}")
            }
            other => panic!("{other:?}"),
        }
    }

    /// The tableau rows read `B^-1`; they are extracted before the snapshot
    /// moves it out, so a `TableauLp` carries rows, statuses, values and a
    /// basis whose inverse still warm-starts without a refactorization.
    #[test]
    fn tableau_survives_moving_the_inverse_out() {
        let (m, bounds) = three_rows();
        let tab = LpWorkspace::new(&m).solve_tableau(&bounds, None, &[true; 6], 1e-6, 8).unwrap();
        assert!(matches!(tab.result, LpResult::Optimal { .. }));
        assert_eq!(tab.stat.len(), 9);
        assert_eq!(tab.values.len(), 9);
        assert!(!tab.frac_rows.is_empty(), "the relaxation is fractional");
        for row in &tab.frac_rows {
            assert!(!row.coeffs.is_empty());
            let is_basic_value = (0..6).any(|j| tab.stat[j] == TabStat::Basic && tab.values[j] == row.beta);
            assert!(is_basic_value, "beta {} is no basic variable's value", row.beta);
        }
        let basis = tab.basis.expect("optimal tableau has a basis");
        assert_eq!(basis.binv.len(), 9);
        let mut b = bounds.clone();
        b[0] = (0.0, 0.0);
        let warm = solve_lp_ext(&m, &b, Some(&basis)).unwrap();
        assert!(warm.stats.warm);
        assert_eq!(warm.stats.refactorizations, 0);
    }

    fn inv_bits(basis: &Basis) -> Vec<u64> {
        basis.binv.iter().map(|v| v.to_bits()).collect()
    }

    /// The tree's stored form expands to the dense snapshot bit for bit at
    /// every size and density, with exact zeros of both signs (whole rows
    /// of `-0.0`, as a negative pivot leaves them, and strays of either
    /// sign) and subnormals planted among the values. A compaction that
    /// treated `-0.0` as a zero to drop would hand it back as `+0.0`.
    #[test]
    fn stored_form_expands_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut planted_neg_zeros = 0;
        for density in [0.0, 0.02, 0.1, 0.34, 0.6, 0.9, 1.0] {
            for _ in 0..40 {
                let m = rng.gen_range(1..=64usize);
                let n = rng.gen_range(0..=8usize);
                let mut binv = Vec::with_capacity(m * m);
                for _ in 0..m {
                    let row_zero = if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
                    for _ in 0..m {
                        let v = match rng.gen_range(0..10u32) {
                            _ if !rng.gen_bool(density) => row_zero,
                            0 => -0.0,
                            1 => 0.0,
                            2 => f64::MIN_POSITIVE / rng.gen_range(2.0..1e6),
                            3 => -f64::MIN_POSITIVE / rng.gen_range(2.0..1e6),
                            _ => rng.gen_range(-1e3..1e3),
                        };
                        planted_neg_zeros += usize::from(v.to_bits() == NEG_ZERO);
                        binv.push(v);
                    }
                }
                let stat = (0..n + m)
                    .map(|_| [BStat::Basic, BStat::AtLower, BStat::AtUpper, BStat::Free][rng.gen_range(0..4usize)])
                    .collect();
                let rows = (0..m).map(|_| rng.gen_range(0..n + m)).collect();
                let dense = Basis { stat, rows, binv };
                let back = StoredBasis::new(&dense).expand();
                assert_eq!((&back.stat, &back.rows), (&dense.stat, &dense.rows));
                assert_eq!(inv_bits(&back), inv_bits(&dense), "m={m} density={density}");
            }
        }
        assert!(planted_neg_zeros > 10_000, "only {planted_neg_zeros} -0.0 planted");

        // A snapshot without an inverse (statuses only, or statuses and row
        // order after a taken install) stays without one.
        for rows in [Vec::new(), vec![1]] {
            let dense = Basis { stat: vec![BStat::AtLower, BStat::Basic], rows, binv: Vec::new() };
            assert_eq!(StoredBasis::new(&dense).expand(), dense);
        }
    }

    /// `m` rows over `m` bounded columns, a diagonal plus ~30 % random
    /// off-diagonal coefficients, every column worth raising.
    fn random_lp(rng: &mut StdRng, m: usize) -> (Model, Vec<(f64, f64)>) {
        let mut model = Model::new();
        let xs: Vec<_> = (0..m).map(|j| model.continuous(format!("x{j}"), 0.0, 10.0)).collect();
        for i in 0..m {
            let mut row = LinExpr::term(xs[i], rng.gen_range(1.0..5.0));
            for (j, &x) in xs.iter().enumerate() {
                if j != i && rng.gen_bool(0.3) {
                    row += LinExpr::term(x, rng.gen_range(-5.0..5.0));
                }
            }
            model.le(format!("r{i}"), row, rng.gen_range(1.0..50.0));
        }
        let obj = LinExpr::sum(xs.iter().map(|&x| LinExpr::term(x, rng.gen_range(0.5..3.0))));
        model.set_objective(obj, Sense::Maximize);
        let bounds = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
        (model, bounds)
    }

    /// A child warm-started from the expanded snapshot is the child
    /// warm-started from the dense one: same pivots and refactorizations,
    /// bit-identical `x`, objective and next basis — by the tree's taken
    /// install and by the copying one.
    #[test]
    fn warm_solve_from_the_stored_form_equals_the_dense_one() {
        let mut rng = StdRng::seed_from_u64(0x5eed_2025);
        let mut warm_pivots = 0;
        for m in [12, 40] {
            let (model, root_bounds) = random_lp(&mut rng, m);
            let root = solve_lp_ext(&model, &root_bounds, None).unwrap();
            let LpResult::Optimal { x: root_x, .. } = &root.result else { panic!("{:?}", root.result) };
            let dense = root.basis.expect("root basis");
            assert_eq!(dense.binv.len(), m * m);
            let stored = StoredBasis::new(&dense);
            for j in (0..m).filter(|&j| root_x[j] > 1e-6 && root_x[j] < 10.0 - 1e-6) {
                for side in [(0.0, root_x[j] / 2.0), ((root_x[j] + 10.0) / 2.0, 10.0)] {
                    let mut b = root_bounds.clone();
                    b[j] = side;
                    let want = solve_lp_ext(&model, &b, Some(&dense)).unwrap();
                    let copied = solve_lp_ext(&model, &b, Some(&stored.expand())).unwrap();
                    let taken = LpWorkspace::new(&model).solve_take(&b, &mut stored.expand()).unwrap();
                    assert!(want.stats.warm, "x{j} in {side:?}");
                    warm_pivots += want.stats.pivots;
                    for got in [&copied, &taken] {
                        assert_eq!(got.stats, want.stats, "x{j} in {side:?}");
                        match (&got.result, &want.result) {
                            (LpResult::Optimal { x: xg, obj: og }, LpResult::Optimal { x: xw, obj: ow }) => {
                                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                                assert_eq!(bits(xg), bits(xw), "x{j} in {side:?}");
                                assert_eq!(og.to_bits(), ow.to_bits(), "x{j} in {side:?}");
                            }
                            (LpResult::Infeasible, LpResult::Infeasible) => {}
                            other => panic!("x{j} in {side:?}: {other:?}"),
                        }
                        let next = |s: &LpSolve| s.basis.as_ref().map(|b| (b.stat.clone(), b.rows.clone(), inv_bits(b)));
                        assert_eq!(next(got), next(&want), "x{j} in {side:?}");
                    }
                }
            }
        }
        assert!(warm_pivots > 20, "the children must pivot ({warm_pivots} dual pivots)");
    }

    /// What a solve hands on, as bits: `x` and the objective (or which
    /// non-optimal result), the work counters, and the next basis —
    /// statuses, row order and `B^-1`.
    #[allow(clippy::type_complexity)]
    fn solve_bits(s: &LpSolve) -> (Option<(Vec<u64>, u64)>, String, LpStats, Option<(Vec<BStat>, Vec<usize>, Vec<u64>)>) {
        let point = match &s.result {
            LpResult::Optimal { x, obj } => Some((x.iter().map(|v| v.to_bits()).collect(), obj.to_bits())),
            _ => None,
        };
        let basis = s.basis.as_ref().map(|b| (b.stat.clone(), b.rows.clone(), inv_bits(b)));
        (point, format!("{:?}", std::mem::discriminant(&s.result)), s.stats, basis)
    }

    /// One workspace carried through a cold root LP, a dive that fixes a
    /// variable per LP (chained, each link's inverse moved in), its
    /// infeasible sides and a dual-infeasible basis that falls back cold
    /// solves every LP bit for bit as the one-shot `solve_lp_ext`, which
    /// builds a workspace for that LP alone: nothing a solve leaves in the
    /// buffers reaches the next one.
    #[test]
    fn one_workspace_solves_every_lp_as_a_fresh_one() {
        let mut rng = StdRng::seed_from_u64(0x0e_1a_b5);
        let (mut chained, mut infeasible, mut fell_back) = (0, 0, 0);
        for m in [12, 40] {
            let (model, root_bounds) = random_lp(&mut rng, m);
            let mut ws = LpWorkspace::new(&model);
            let root = ws.solve(&root_bounds, None).unwrap();
            assert_eq!(solve_bits(&root), solve_bits(&solve_lp_ext(&model, &root_bounds, None).unwrap()), "m={m} root");
            let LpResult::Optimal { x: mut cur, .. } = root.result else { panic!("{:?}", root.result) };
            let mut link = root.basis.expect("root basis");
            let mut bounds = root_bounds.clone();
            for step in 0..m {
                let j = rng.gen_range(0..m);
                let keep = bounds[j];
                // Half the time the variable's upper bound, which some
                // rows cannot carry: an infeasible side.
                bounds[j] = if rng.gen_bool(0.5) { (10.0, 10.0) } else { (cur[j] / 2.0, cur[j] / 2.0) };
                let want = solve_lp_ext(&model, &bounds, Some(&link)).unwrap();
                let got = ws.solve_take(&bounds, &mut link).unwrap();
                assert_eq!(solve_bits(&got), solve_bits(&want), "m={m} step {step}");
                chained += usize::from(got.stats.warm);
                match got.result {
                    LpResult::Optimal { x, .. } => {
                        cur = x;
                        link = got.basis.expect("an optimal dive LP leaves a basis");
                    }
                    _ => {
                        infeasible += 1;
                        bounds[j] = keep;
                    }
                }
            }
            // Every structural at its lower bound, every slack basic: primal
            // feasible, but each column is worth raising.
            let slack_basis = Basis {
                stat: (0..2 * m).map(|j| if j < m { BStat::AtLower } else { BStat::Basic }).collect(),
                rows: Vec::new(),
                binv: Vec::new(),
            };
            let got = ws.solve(&bounds, Some(&slack_basis)).unwrap();
            assert_eq!(solve_bits(&got), solve_bits(&solve_lp_ext(&model, &bounds, Some(&slack_basis)).unwrap()), "m={m} fallback");
            fell_back += usize::from(got.stats.fell_back);
            // And the workspace is as good as new after the fallback.
            let again = ws.solve(&root_bounds, got.basis.as_ref()).unwrap();
            assert_eq!(solve_bits(&again), solve_bits(&solve_lp_ext(&model, &root_bounds, got.basis.as_ref()).unwrap()), "m={m} after the fallback");
        }
        assert!(chained > 10 && infeasible > 3 && fell_back == 2, "{chained} warm LPs, {infeasible} infeasible, {fell_back} fallbacks");
    }
}

/// The kernels against the loops they replaced. The reference kernels
/// below are those loops, unchanged: whole-matrix indexing,
/// column-strided `ftran`, the eager singularity scale. Equality
/// is `==` on every element, or bit patterns with `-0.0` folded to `+0.0`,
/// so `+0.0` and `-0.0` agree and nothing else does.
#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ref_ftran(sx: &Simplex, binv: &[f64], j: usize) -> Vec<f64> {
        let m = sx.m;
        let mut w = vec![0.0; m];
        for &(col, a) in &sx.cols[j] {
            for i in 0..m {
                let v = binv[i * m + col];
                if v != 0.0 {
                    w[i] += v * a;
                }
            }
        }
        w
    }

    fn ref_do_pivot(binv: &mut [f64], m: usize, row: usize, w: &[f64]) {
        let inv = 1.0 / w[row];
        for k in 0..m {
            binv[row * m + k] *= inv;
        }
        for i in 0..m {
            if i != row && w[i] != 0.0 {
                for k in 0..m {
                    if binv[row * m + k] != 0.0 {
                        binv[i * m + k] -= w[i] * binv[row * m + k];
                    }
                }
            }
        }
    }

    fn ref_dual_prices(sx: &Simplex, binv: &[f64], c: &[f64]) -> Vec<f64> {
        let m = sx.m;
        let mut y = vec![0.0; m];
        for i in 0..m {
            let cb = c[sx.basis[i]];
            if cb != 0.0 {
                for k in 0..m {
                    let v = binv[i * m + k];
                    if v != 0.0 {
                        y[k] += cb * v;
                    }
                }
            }
        }
        y
    }

    fn ref_refresh_values(sx: &Simplex, binv: &[f64]) -> Vec<f64> {
        let m = sx.m;
        let mut resid = sx.mat().rhs.clone();
        for j in 0..sx.cols.len() {
            if matches!(sx.stat[j], VStat::Basic(_)) {
                continue;
            }
            let v = sx.var_value(j);
            if v != 0.0 {
                for &(r, a) in &sx.cols[j] {
                    resid[r] -= a * v;
                }
            }
        }
        (0..m)
            .map(|i| {
                let mut acc = 0.0;
                for k in 0..m {
                    let v = binv[i * m + k];
                    if v != 0.0 {
                        acc += v * resid[k];
                    }
                }
                acc
            })
            .collect()
    }

    /// Gauss-Jordan with the whole-matrix scale folded afresh for every
    /// column; `None` is the singular verdict.
    fn ref_refactorize(sx: &Simplex) -> Option<Vec<f64>> {
        let m = sx.m;
        let mut bmat = vec![0.0f64; m * m];
        for (col, &j) in sx.basis.iter().enumerate() {
            for &(r, a) in &sx.cols[j] {
                bmat[r * m + col] = a;
            }
        }
        let mut inv = identity(m);
        for c in 0..m {
            let mut best = c;
            let mut best_abs = bmat[c * m + c].abs();
            for r in (c + 1)..m {
                let a = bmat[r * m + c].abs();
                if a > best_abs {
                    best = r;
                    best_abs = a;
                }
            }
            let scale = bmat.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
            if best_abs < 1e-13 * scale {
                return None;
            }
            if best != c {
                for k in 0..m {
                    bmat.swap(c * m + k, best * m + k);
                    inv.swap(c * m + k, best * m + k);
                }
            }
            let pinv = 1.0 / bmat[c * m + c];
            for k in 0..m {
                bmat[c * m + k] *= pinv;
                inv[c * m + k] *= pinv;
            }
            for r in 0..m {
                let f = bmat[r * m + c];
                if r != c && f != 0.0 {
                    for k in 0..m {
                        bmat[r * m + k] -= f * bmat[c * m + k];
                        inv[r * m + k] -= f * inv[c * m + k];
                    }
                }
            }
        }
        Some(inv)
    }

    /// A matrix that lives as long as the test, for a solver to borrow.
    fn leak(mat: LpMatrix) -> &'static LpMatrix {
        Box::leak(Box::new(mat))
    }

    /// Seat `basis` (one variable per row) with an identity inverse and
    /// everything else at its lower bound — the state `solve` starts from.
    fn seat(sx: &mut Simplex, basis: Vec<usize>) {
        let m = sx.m;
        sx.stat = vec![VStat::AtLower; sx.n + m];
        for (i, &b) in basis.iter().enumerate() {
            sx.stat[b] = VStat::Basic(i);
        }
        sx.banned = vec![false; sx.n + m];
        sx.binv = identity(m);
        sx.basis = basis;
        sx.xb = vec![0.0; m];
    }

    /// A solver sitting on the slack basis of a seeded random `m`-row,
    /// `m`-column model of the given coefficient density.
    fn random_simplex(rng: &mut StdRng, m: usize, density: f64) -> Simplex<'static> {
        let mut model = Model::new();
        let xs: Vec<_> = (0..m).map(|j| model.continuous(format!("x{j}"), 0.0, 10.0)).collect();
        for i in 0..m {
            let mut row = LinExpr::term(xs[i], rng.gen_range(1.0..5.0));
            for &x in &xs {
                if rng.gen_bool(density) {
                    row += LinExpr::term(x, rng.gen_range(-5.0..5.0));
                }
            }
            model.le(format!("r{i}"), row, rng.gen_range(1.0..50.0));
        }
        model.set_objective(
            LinExpr::sum(xs.iter().map(|&x| LinExpr::term(x, rng.gen_range(-3.0..3.0)))),
            Sense::Maximize,
        );
        let bounds: Vec<_> = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
        let mut sx = Simplex::new(leak(LpMatrix::new(&model)), &bounds, Scratch::default());
        seat(&mut sx, (m..2 * m).collect());
        // Some structurals rest at their upper bound, so the residual and
        // the refreshed values are not all zeros.
        for j in 0..m {
            if rng.gen_bool(0.3) {
                sx.stat[j] = VStat::AtUpper;
            }
        }
        sx.refresh_values();
        sx
    }

    #[test]
    fn kernels_match_the_reference_loops_pivot_by_pivot() {
        let mut rng = StdRng::seed_from_u64(0x51_4d_50_4c);
        for &m in &[5usize, 40, 200] {
            for &density in &[0.02, 0.1, 0.3] {
                let mut sx = random_simplex(&mut rng, m, density);
                let cost = sx.mat().obj.clone();
                let mut binv = sx.binv.clone();
                let mut pivots = 0;
                let mut attempts = 0;
                while pivots < 200 {
                    attempts += 1;
                    assert!(attempts < 5000, "m={m} density={density}: no pivotable column");
                    let j = rng.gen_range(0..2 * m);
                    if matches!(sx.stat[j], VStat::Basic(_)) {
                        continue;
                    }
                    sx.ftran(j);
                    let w = ref_ftran(&sx, &binv, j);
                    assert_eq!(sx.w, w, "ftran, m={m} density={density} pivot {pivots}");
                    // A row among the larger entries keeps the basis away
                    // from singular over hundreds of random pivots.
                    let big = w.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
                    let rows: Vec<usize> = (0..m).filter(|&i| w[i].abs() >= 0.5 * big && big > 1e-6).collect();
                    if rows.is_empty() {
                        continue;
                    }
                    let row = rows[rng.gen_range(0..rows.len())];
                    let leaving = sx.basis[row];
                    sx.do_pivot(j, row, sx.var_value(j));
                    sx.stat[leaving] = VStat::AtLower;
                    ref_do_pivot(&mut binv, m, row, &w);
                    pivots += 1;
                    assert_eq!(sx.binv, binv, "do_pivot, m={m} density={density} pivot {pivots}");
                    sx.dual_prices(&cost);
                    assert_eq!(sx.y, ref_dual_prices(&sx, &binv, &cost), "dual prices, pivot {pivots}");
                    sx.refresh_values();
                    assert_eq!(sx.xb, ref_refresh_values(&sx, &binv), "refresh_values, pivot {pivots}");
                    if pivots % 50 == 0 {
                        binv = ref_refactorize(&sx).expect("pivots among the larger entries keep the basis regular");
                        sx.refactorize().expect("the verdict of the eager scale");
                        assert_eq!(sx.binv, binv, "refactorize, m={m} density={density}");
                    }
                }
            }
        }
    }

    /// A solver whose basis matrix is exactly `columns` (sparse, one list
    /// of `(row, value)` per basic column), bypassing row equilibration.
    fn with_basis_matrix(columns: &[Vec<(usize, f64)>]) -> Simplex<'static> {
        let m = columns.len();
        let mut model = Model::new();
        for i in 0..m {
            let x = model.continuous(format!("x{i}"), 0.0, 1.0);
            model.le(format!("r{i}"), LinExpr::from(x), 1.0);
        }
        let bounds: Vec<_> = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
        let mut mat = LpMatrix::new(&model);
        let mut entries = Vec::new();
        let mut start = vec![0];
        for j in 0..2 * m {
            let slack = &mat.entries[mat.start[j]..mat.start[j + 1]];
            entries.extend_from_slice(if j < m { &columns[j] } else { slack });
            start.push(entries.len());
        }
        (mat.start, mat.entries) = (start, entries);
        let mut sx = Simplex::new(leak(mat), &bounds, Scratch::default());
        seat(&mut sx, (0..m).collect());
        sx
    }

    /// Bit patterns with `-0.0` folded to `+0.0`: the contract lets a kernel
    /// change the sign of a zero and nothing else.
    fn folded_bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|&x| if x == 0.0 { 0 } else { x.to_bits() }).collect()
    }

    /// A value for a random matrix: mostly normal, with `+0.0`, `-0.0` and
    /// subnormals mixed in.
    fn awkward(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1.0..1.0) * 1e-310,
            _ => rng.gen_range(-4.0..4.0),
        }
    }

    /// Each row-update path — sparse, the dense body, the dense body at
    /// AVX2 width (where the CPU has it) and the dispatching `eliminate` —
    /// against the reference loop, on pivot rows either side of the
    /// `m / 4` switch.
    #[test]
    fn row_update_paths_match_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0d_e5_e0);
        let m = 100;
        let avx2 = dense_rows_avx2();
        for &nnz in &[10usize, 24, 26, 60, 100] {
            for trial in 0..4 {
                let mut binv: Vec<f64> = (0..m * m).map(|_| awkward(&mut rng)).collect();
                let row = rng.gen_range(0..m);
                // The pivot row: exactly `nnz` nonzeros, a quarter of them
                // subnormal, and signed zeros elsewhere.
                let mut cols: Vec<usize> = (0..m).collect();
                for k in 0..m {
                    cols.swap(k, rng.gen_range(k..m));
                }
                for k in 0..m {
                    binv[row * m + k] = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                }
                for (i, &k) in cols[..nnz].iter().enumerate() {
                    let v = rng.gen_range(0.5..4.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    binv[row * m + k] = if i % 4 == 0 { v * 1e-310 } else { v };
                }
                let mut w: Vec<f64> = (0..m).map(|_| awkward(&mut rng)).collect();
                w[row] = rng.gen_range(0.5..2.0);

                let mut expect = binv.clone();
                ref_do_pivot(&mut expect, m, row, &w);
                let mut nz = Vec::new();
                scale_and_gather(&mut binv[row * m..(row + 1) * m], 1.0 / w[row], &mut nz);
                assert_eq!(nz.len(), nnz, "the scaled pivot row keeps its nonzeros");

                let mut paths: Vec<(&str, Vec<f64>)> = Vec::new();
                let mut run = |name, kernel: &dyn Fn(&mut [f64])| {
                    let mut mat = binv.clone();
                    kernel(&mut mat);
                    paths.push((name, mat));
                };
                run("sparse", &|mat| sparse_rows(mat, m, row, &w, &nz));
                run("dense", &|mat| dense_rows(mat, m, row, &w));
                run("eliminate", &|mat| eliminate(mat, m, row, &w, &nz));
                if let Some(kernel) = avx2 {
                    run("dense avx2", &|mat| kernel(mat, m, row, &w));
                }
                for (name, mat) in paths {
                    assert_eq!(folded_bits(&mat), folded_bits(&expect), "{name}, {nnz} nonzeros, trial {trial}");
                }
            }
        }
    }

    /// The four-row `ftran` against the column-strided reference, with
    /// `m` ≡ 0, 1, 2, 3 (mod 4) so that every tail length runs.
    #[test]
    fn four_row_ftran_matches_the_reference_at_every_tail() {
        let mut rng = StdRng::seed_from_u64(0xf7_4a_11);
        for m in [1usize, 2, 3, 4, 9, 10, 11, 12, 101, 102, 103] {
            let mut sx = random_simplex(&mut rng, m, 0.3);
            sx.binv = (0..m * m).map(|_| awkward(&mut rng)).collect();
            let binv = sx.binv.clone();
            for j in 0..2 * m {
                sx.ftran(j);
                assert_eq!(sx.w.len(), m);
                assert_eq!(folded_bits(&sx.w), folded_bits(&ref_ftran(&sx, &binv, j)), "m={m} column {j}");
            }
        }
    }

    /// `refresh_values` sums over the residual's nonzeros only; the
    /// reference sums over every entry of `B^-1` that is not zero. Equal bit
    /// for bit, signs of zeros included, on residuals with exact zeros of
    /// both signs — rows whose right-hand side is `+0.0` or `-0.0` and that
    /// no column off zero touches — and inverses full of signed zeros and
    /// subnormals.
    #[test]
    fn refresh_over_residual_nonzeros_matches_the_reference_on_signed_zeros() {
        let mut rng = StdRng::seed_from_u64(0x2e_f2_e5);
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut pos_zeros, mut neg_zeros) = (0, 0);
        for m in [1usize, 3, 8, 40, 120] {
            let mut model = Model::new();
            let xs: Vec<_> = (0..m).map(|j| model.continuous(format!("x{j}"), 0.0, 10.0)).collect();
            for i in 0..m {
                let mut row = LinExpr::term(xs[i], rng.gen_range(1.0..5.0));
                for &x in &xs {
                    if rng.gen_bool(0.05) {
                        row += LinExpr::term(x, rng.gen_range(-5.0..5.0));
                    }
                }
                let rhs = [0.0, -0.0, rng.gen_range(-20.0..20.0)][rng.gen_range(0..3)];
                model.le(format!("r{i}"), row, rhs);
            }
            model.set_objective(LinExpr::from(xs[0]), Sense::Maximize);
            let bounds: Vec<_> = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
            let mut sx = Simplex::new(leak(LpMatrix::new(&model)), &bounds, Scratch::default());
            seat(&mut sx, (m..2 * m).collect());
            for j in 0..m {
                if rng.gen_bool(0.1) {
                    sx.stat[j] = VStat::AtUpper;
                }
            }
            for trial in 0..4 {
                sx.binv = (0..m * m).map(|_| awkward(&mut rng)).collect();
                sx.refresh_values();
                assert_eq!(bits(&sx.xb), bits(&ref_refresh_values(&sx, &sx.binv)), "m={m} trial {trial}");
            }
            pos_zeros += sx.resid.iter().filter(|r| r.to_bits() == 0).count();
            neg_zeros += sx.resid.iter().filter(|r| r.to_bits() == NEG_ZERO).count();
        }
        assert!(pos_zeros > 5 && neg_zeros > 5, "residual zeros: {pos_zeros} +0.0, {neg_zeros} -0.0");
    }

    /// The lazy scale check must give the eager fold's verdict (and, when
    /// it passes, its inverse) on every side of the threshold.
    #[test]
    fn lazy_singularity_scale_gives_the_eager_verdict() {
        let diag = |d: [f64; 3]| vec![vec![(0, d[0])], vec![(1, d[1])], vec![(2, d[2])]];
        type Columns = Vec<Vec<(usize, f64)>>;
        let cases: Vec<(&str, Columns, bool)> = vec![
            ("two equal columns", vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 2.0)], vec![(2, 1.0)]], false),
            ("pivot just above 1e-13 * 1", diag([1.0, 1.0, 1.01e-13]), true),
            ("pivot just below 1e-13 * 1", diag([1.0, 1.0, 0.99e-13]), false),
            // The 4e3 sits in the last column until that column is
            // eliminated, so it is the scale its pivot is judged against.
            ("pivot just above 1e-13 * 4e3", vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(0, 4e3), (2, 4.04e-10)]], true),
            ("pivot just below 1e-13 * 4e3", vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(0, 4e3), (2, 3.96e-10)]], false),
            // Entries shrink: scaling row 0 turns the 4e3 into 1, so the
            // running maximum (4e3) overstates the scale (1) by the time
            // the last pivot is judged. Only the exact fold may say no.
            ("running max above true max, passes", diag([4e3, 1.0, 2e-13]), true),
            ("running max above true max, fails", diag([4e3, 1.0, 0.5e-13]), false),
        ];
        for (name, columns, ok) in cases {
            let mut sx = with_basis_matrix(&columns);
            let eager = ref_refactorize(&sx);
            assert_eq!(eager.is_some(), ok, "{name}: the case does not sit where it claims");
            assert_eq!(sx.refactorize().is_ok(), ok, "{name}");
            if let Some(inv) = eager {
                assert_eq!(sx.binv, inv, "{name}");
            }
        }
    }
}

#[cfg(test)]
mod regressions {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    /// Regression: a fixed-variable node whose residual demands a negative
    /// value used to slip past phase 1 because the basis inverse was not
    /// adjusted for artificials with a -1 column.
    #[test]
    fn infeasible_node_detected() {
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
        let b = vec![(1.0,1.0),(0.0,1.0),(1.0,1.0),(0.0,0.0),(1.0,1.0)];
        let r = solve_lp(&m, &b).unwrap();
        assert!(matches!(r, LpResult::Infeasible), "{r:?}");
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    /// Compiler-style conditioning: placement binaries against capacity
    /// coefficients in the tens of thousands. Row equilibration plus the
    /// relative pivot threshold must keep the solve exact.
    #[test]
    fn mixed_scale_coefficients_solve_exactly() {
        let mut m = Model::new();
        let cap = 54_687.0f64;
        let x: Vec<_> = (0..6).map(|i| m.binary(format!("x{i}"))).collect();
        let c: Vec<_> = (0..6)
            .map(|i| m.continuous(format!("c{i}"), 0.0, cap))
            .collect();
        let mut total = LinExpr::zero();
        for i in 0..6 {
            // c_i <= cap * x_i (the colocate pattern)
            m.le(
                format!("link{i}"),
                LinExpr::from(c[i]) - LinExpr::term(x[i], cap),
                0.0,
            );
            total += LinExpr::from(c[i]);
        }
        // at most three placements
        m.le(
            "placements",
            LinExpr::sum(x.iter().map(|&v| LinExpr::from(v))),
            3.0,
        );
        m.set_objective(total, Sense::Maximize);
        let bounds: Vec<(f64, f64)> = m.vars().iter().map(|v| (v.lb, v.ub)).collect();
        match solve_lp(&m, &bounds).unwrap() {
            LpResult::Optimal { obj, .. } => {
                // Even fractionally, sum(c) <= cap * sum(x) <= 3 cap.
                assert!((obj - 3.0 * cap).abs() < 1e-4, "LP relaxation obj = {obj}");
            }
            other => panic!("{other:?}"),
        }
        // Integer version: exactly 3 * cap.
        let out = crate::branch::solve(&m).unwrap();
        assert!((out.solution.unwrap().objective - 3.0 * cap).abs() < 1e-4);
    }

    /// The Bland restart path: force it by running a wide degenerate model.
    #[test]
    fn forced_bland_mode_still_optimal() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 10.0);
        let y = m.continuous("y", 0.0, 10.0);
        m.le("a", LinExpr::from(x) + LinExpr::from(y), 10.0);
        m.le("b", LinExpr::term(x, 2.0) + LinExpr::from(y), 15.0);
        m.set_objective(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Sense::Maximize);
        let bounds: Vec<(f64, f64)> = m.vars().iter().map(|v| (v.lb, v.ub)).collect();
        let mat = LpMatrix::new(&m);
        let mut sx = Simplex::new(&mat, &bounds, Scratch::default());
        sx.force_bland = true;
        match sx.solve().unwrap() {
            LpResult::Optimal { obj, .. } => assert!((obj - 25.0).abs() < 1e-6, "obj {obj}"),
            other => panic!("{other:?}"),
        }
    }
}
