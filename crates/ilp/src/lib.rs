//! # p4all-ilp — exact MILP solver for the P4All compiler
//!
//! The P4All compiler (HotNets 2020) resolves symbolic program parameters
//! by solving an integer linear program over action placements, register
//! memory, and metadata allocation. The paper used the Gurobi Optimizer;
//! this crate is a self-contained replacement: a model-building API, a
//! bound-propagation presolve, a bounded-variable two-phase primal simplex
//! for LP relaxations (with a dual simplex for warm re-solves), and one
//! depth-first cut-and-branch search with a root diving heuristic. Every
//! solve records [`SolveTelemetry`] (LP work counters, the incumbent
//! timeline, and the final optimality gap).
//!
//! The solver is exact: when it reports [`SolveStatus::Optimal`], the
//! returned solution maximizes (or minimizes) the objective over all
//! integral assignments. It is sized for compiler workloads — hundreds to
//! a few thousand variables — not for industrial MIP benchmarks.
//!
//! ## Example
//!
//! ```
//! use p4all_ilp::{Model, LinExpr, Sense, solve, SolveStatus};
//!
//! // max 3a + 4b + 5c  s.t. 2a + 3b + 4c <= 6  (binary knapsack)
//! let mut m = Model::new();
//! let a = m.binary("a");
//! let b = m.binary("b");
//! let c = m.binary("c");
//! m.le("cap", LinExpr::term(a, 2.0) + LinExpr::term(b, 3.0) + LinExpr::term(c, 4.0), 6.0);
//! m.set_objective(LinExpr::term(a, 3.0) + LinExpr::term(b, 4.0) + LinExpr::term(c, 5.0),
//!                 Sense::Maximize);
//! let out = solve(&m).unwrap();
//! assert_eq!(out.status, SolveStatus::Optimal);
//! assert_eq!(out.solution.unwrap().objective, 8.0);
//! ```

pub mod branch;
pub mod cuts;
pub mod iis;
pub mod model;
pub mod presolve;
pub mod simplex;
pub mod telemetry;

pub use branch::{solve, solve_with, MipOutcome, SolveOptions, SolveStatus};
pub use cuts::CutCounters;
pub use iis::{find_iis, IisOptions, IisReport};
pub use telemetry::{
    DiveTelemetry, DiveWork, FaceDiveEnd, IncumbentEvent, IncumbentSource, LpWork, SolveTelemetry,
    WarmDiveEnd,
};
pub use model::{
    brute_force, Cmp, Constraint, LinExpr, Model, ModelStats, Sense, Solution, VarId, VarKind,
    Variable,
};
pub use presolve::{presolve, Presolved};
pub use simplex::{solve_lp, Basis, LpError, LpResult, LpSolve, LpStats, LpWorkspace};
