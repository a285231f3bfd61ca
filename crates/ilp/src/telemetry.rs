//! Solve telemetry: what the branch-and-bound did, not just what it
//! returned. Captured by every solve and surfaced by the CLI's solve
//! summary and the bench harness's compile-time tables.

use crate::cuts::CutCounters;
use crate::simplex::LpStats;
use std::fmt;
use std::time::Duration;

/// LP work of one solve, summed over every relaxation it solved (root
/// LP, dives, cut rounds, strong branching, tree nodes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpWork {
    /// Simplex pivots (primal and dual). The warm-vs-cold win shows up
    /// here: a warm re-solve typically pivots a handful of times where a
    /// cold solve pivots hundreds.
    pub pivots: usize,
    /// From-scratch basis-inverse rebuilds (numerical-health failures,
    /// plus warm installs whose snapshot did not capture the parent's
    /// inverse — snapshots of small models carry it and skip the rebuild).
    pub refactorizations: usize,
    /// LP solves completed on the warm dual-simplex path.
    pub warm_solves: usize,
    /// Warm attempts that fell back to the cold two-phase solve.
    pub cold_fallbacks: usize,
}

impl LpWork {
    pub(crate) fn add(&mut self, s: &LpStats) {
        self.pivots += s.pivots;
        self.refactorizations += s.refactorizations;
        if s.warm {
            self.warm_solves += 1;
        }
        if s.fell_back {
            self.cold_fallbacks += 1;
        }
    }
}

/// One improvement of the best known feasible solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncumbentEvent {
    /// Wall-clock offset from the start of the solve.
    pub elapsed: Duration,
    /// Objective value of the new incumbent (in the model's own units and
    /// sense — not the internal normalized score).
    pub objective: f64,
    /// Where it came from.
    pub source: IncumbentSource,
}

/// Origin of an incumbent improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncumbentSource {
    /// Caller-provided warm start accepted as feasible.
    WarmStart,
    /// The root dive chained from the root basis (`warm_lp`).
    WarmDive,
    /// The root dive held to the face of the root bound.
    FaceDive,
    /// An integral optimum of a root cut-round LP.
    CutRound,
    /// An integral branch-and-bound node.
    Node,
}

impl fmt::Display for IncumbentSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncumbentSource::WarmStart => write!(f, "warm-start"),
            IncumbentSource::WarmDive => write!(f, "warm dive"),
            IncumbentSource::FaceDive => write!(f, "face dive"),
            IncumbentSource::CutRound => write!(f, "cut-round"),
            IncumbentSource::Node => write!(f, "node"),
        }
    }
}

/// LP work of one pass of the root dive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiveWork {
    /// Dive LPs solved (a backtracked step counts both sides).
    pub lps: usize,
    /// Simplex pivots across them.
    pub pivots: usize,
}

/// How the warm pass of the root dive (over the model; basis-chained under
/// `warm_lp`, cold under `warm_lp: false`) ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmDiveEnd {
    /// Its incumbent closed the root gap: no face dive, no tree.
    ClosedGap,
    /// Its last LP's bound fell through the root gap, so no incumbent
    /// below it could close it (both in objective units).
    GaveUp { bound: f64, root: f64 },
    /// It ran to its end with an incumbent short of the root bound, or
    /// with none.
    LeftGapOpen,
}

/// How the face dive ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaceDiveEnd {
    /// It reached an integral point on the face of the root bound, which
    /// closes the root gap: no tree.
    ClosedGap,
    /// It ended on an integral point that does not close the root gap:
    /// one at the low edge of the face row's `prune_gap` band, or one that
    /// snapping to integers lowered. The point is kept as an incumbent if
    /// it beats the warm pass's, and the tree starts from the better one.
    FellShort,
    /// It found no integral point there; the tree starts from the warm
    /// pass's incumbent, if any.
    Empty,
}

/// What the root diving heuristic did: the warm pass, then the face dive
/// unless the warm pass closed the root gap (under either `warm_lp`
/// setting, which only decides how each LP starts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiveTelemetry {
    /// The warm pass.
    pub warm: (WarmDiveEnd, DiveWork),
    /// The face dive; `None` when the warm pass closed the root gap.
    pub face: Option<(FaceDiveEnd, DiveWork)>,
}

impl DiveTelemetry {
    /// The record as a JSON object, for `p4allc --json-diagnostics`:
    /// `{"warm":{"end":"closed_gap"|"gave_up"|"left_gap_open","lps":k,
    /// "pivots":p[,"bound":z,"root":r]},
    /// "face":{"end":"closed_gap"|"fell_short"|"empty","lps":k,"pivots":p}|null}`.
    pub fn to_json(&self) -> String {
        let (end, w) = &self.warm;
        let (end, bounds) = match end {
            WarmDiveEnd::ClosedGap => ("closed_gap", String::new()),
            WarmDiveEnd::GaveUp { bound, root } => {
                ("gave_up", format!(",\"bound\":{bound},\"root\":{root}"))
            }
            WarmDiveEnd::LeftGapOpen => ("left_gap_open", String::new()),
        };
        let warm =
            format!("{{\"end\":\"{end}\",\"lps\":{},\"pivots\":{}{bounds}}}", w.lps, w.pivots);
        let face = match &self.face {
            None => "null".to_string(),
            Some((end, w)) => {
                let end = match end {
                    FaceDiveEnd::ClosedGap => "closed_gap",
                    FaceDiveEnd::FellShort => "fell_short",
                    FaceDiveEnd::Empty => "empty",
                };
                format!("{{\"end\":\"{end}\",\"lps\":{},\"pivots\":{}}}", w.lps, w.pivots)
            }
        };
        format!("{{\"warm\":{warm},\"face\":{face}}}")
    }
}

impl fmt::Display for DiveTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (end, w) = &self.warm;
        let (lps, pivots) = (w.lps, w.pivots);
        match end {
            WarmDiveEnd::ClosedGap => {
                write!(f, "warm closed the root gap ({lps} LPs, {pivots} pivots)")?;
            }
            WarmDiveEnd::GaveUp { bound, root } => write!(
                f,
                "warm gave up at LP {lps} (bound {bound:.6} < root {root:.6}; {pivots} pivots)"
            )?,
            WarmDiveEnd::LeftGapOpen => {
                write!(f, "warm left the root gap open ({lps} LPs, {pivots} pivots)")?;
            }
        }
        let Some((end, w)) = &self.face else { return Ok(()) };
        let what = match end {
            FaceDiveEnd::ClosedGap => "reached the root bound",
            FaceDiveEnd::FellShort => "found a point short of the root bound",
            FaceDiveEnd::Empty => "found no point on the root face",
        };
        write!(f, ", face dive {what} ({} LPs, {} pivots)", w.lps, w.pivots)
    }
}

/// Full telemetry of one MIP solve. The default value is that of a solve
/// that ended before any LP ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveTelemetry {
    /// LP work across every relaxation of the solve.
    pub lp: LpWork,
    /// Incumbent-improvement timeline, in discovery order.
    pub incumbents: Vec<IncumbentEvent>,
    /// Best proven bound on the optimum at exit, in objective units.
    /// `None` when no bound was established (e.g. infeasible models).
    pub best_bound: Option<f64>,
    /// Final absolute optimality gap `|best_bound - incumbent|`
    /// (0 when proven optimal, `None` without an incumbent or bound).
    pub gap_abs: Option<f64>,
    /// Final relative gap, `gap_abs / max(1, |incumbent|)`.
    pub gap_rel: Option<f64>,
    /// Cut-engine and pseudocost-branching counters (all zero when
    /// `SolveOptions { cuts: false }`).
    pub cuts: CutCounters,
    /// What the root dive did; `None` when it did not run (disabled, the
    /// seeded incumbent already closed the root gap, or the solve ended
    /// at the root LP).
    pub dive: Option<DiveTelemetry>,
}

impl SolveTelemetry {
    /// Fill `gap_abs` / `gap_rel` from `best_bound` and the incumbent
    /// objective (`None` incumbent leaves the gaps unset).
    pub fn set_gap(&mut self, incumbent_objective: Option<f64>) {
        if let (Some(bound), Some(inc)) = (self.best_bound, incumbent_objective) {
            let gap = (bound - inc).abs();
            self.gap_abs = Some(gap);
            self.gap_rel = Some(gap / inc.abs().max(1.0));
        }
    }

    /// Human-readable multi-line solve summary (used by `p4allc`).
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "LP work: {} pivots, {} warm solves, {} cold fallbacks, {} refactorizations",
            self.lp.pivots, self.lp.warm_solves, self.lp.cold_fallbacks, self.lp.refactorizations
        );
        if self.cuts != CutCounters::default() {
            let _ = writeln!(
                s,
                "cuts: {} separated, {} applied, {} aged out; pseudocost: {} updates, {} strong-branch LPs",
                self.cuts.separated,
                self.cuts.applied,
                self.cuts.aged_out,
                self.cuts.pseudocost_updates,
                self.cuts.strong_branch_lps
            );
        }
        if let Some(dive) = &self.dive {
            let _ = writeln!(s, "root dive: {dive}");
        }
        if self.incumbents.is_empty() {
            let _ = writeln!(s, "incumbents: none found");
        } else {
            let _ = writeln!(s, "incumbents ({} improvements):", self.incumbents.len());
            for ev in &self.incumbents {
                let _ = writeln!(
                    s,
                    "  +{:>9.3}s  obj {:<14.6} ({})",
                    ev.elapsed.as_secs_f64(),
                    ev.objective,
                    ev.source
                );
            }
        }
        match (self.best_bound, self.gap_abs, self.gap_rel) {
            (Some(b), Some(ga), Some(gr)) => {
                let _ = writeln!(
                    s,
                    "bound: {b:.6}, gap: {ga:.6} abs / {:.4}% rel",
                    gr * 100.0
                );
            }
            (Some(b), _, _) => {
                let _ = writeln!(s, "bound: {b:.6} (no incumbent to close the gap)");
            }
            _ => {}
        }
        s
    }

    /// Total simplex pivots of the solve.
    pub fn total_pivots(&self) -> usize {
        self.lp.pivots
    }

    /// Total basis refactorizations of the solve.
    pub fn total_refactorizations(&self) -> usize {
        self.lp.refactorizations
    }

    /// LP solves that finished on the warm dual-simplex path.
    pub fn total_warm_solves(&self) -> usize {
        self.lp.warm_solves
    }

    /// Warm attempts that fell back to the cold solve.
    pub fn total_cold_fallbacks(&self) -> usize {
        self.lp.cold_fallbacks
    }

    /// Whether a caller-provided warm-start assignment was accepted as
    /// the seed incumbent (the cross-solve warm start of parameter
    /// sweeps).
    pub fn warm_start_accepted(&self) -> bool {
        self.incumbents
            .iter()
            .any(|e| e.source == IncumbentSource::WarmStart)
    }
}
