//! ILP generation (Figure 10 of the paper).
//!
//! Encodes the placement of the fully unrolled program into a
//! [`p4all_ilp::Model`]:
//!
//! - `x[g][s]` — binary: dependency-graph node (group) `g` is in stage `s`.
//!   Grouping instances that share a register instance *is* constraint #4
//!   (same-stage) by construction.
//! - `c[r][s]` — integer: cells of register instance `r` allocated in stage
//!   `s` (the paper's memory variables `m_{r,s}`, in element units).
//! - `d[(v,i)]` — binary: metadata chunk for iteration `i` of count
//!   symbolic `v` is live (the paper's `d_i`).
//! - `V_sz` — integer: the value of size symbolic `sz` (register cells /
//!   hash range), shared by every register sized by `sz` — constraint #10
//!   (equal row sizes) falls out of the sharing.
//!
//! Constraints #5 (exclusion), #6 (precedence), #7 (iteration coherence),
//! #8 (per-stage memory), #9 (memory/action co-location), #11/#12 (ALU
//! budgets), #13/#14 (PHV), #15/#16/#17 (at-most-once, in-order,
//! mandatory inelastic) are generated exactly as in the paper; user
//! `assume`s and the `optimize` utility are linearized over the same
//! variables (products `count * size` of one register array linearize to
//! total allocated cells).
//!
//! Each row's terms are built straight into the vector the model keeps.
//! Beside it the generator records a small `Copy` origin (row kind, the
//! group/register/stage/assume indices, the source span); the prose of a
//! [`RowProvenance`] is rendered from that origin only when asked
//! ([`Encoding::provenance_of`], which the infeasibility explainer calls).

// Stage-indexed `for s in 0..stages` loops index the placement matrix in
// lockstep with constraint names; keep the paper notation.
#![allow(clippy::needless_range_loop)]

use std::collections::BTreeMap;
use std::sync::Arc;

use p4all_ilp::{LinExpr, Model, Sense, VarId};
use p4all_lang::ast::{BinOp, Expr, Program, Size, UnOp};
use p4all_lang::diag::Diagnostic;
use p4all_lang::span::Span;
use p4all_pisa::TargetSpec;

use crate::depgraph::DepGraph;
use crate::elaborate::{ProgramInfo, SymRole};
use crate::ir::{ActionInstance, Iter, Unrolled};

/// PISA resource kind a constraint row draws on (the paper's S/M/F/L/P),
/// plus the non-physical origins (program structure, user assumptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Pipeline stages `S` (placement, ordering, exclusion).
    Stages,
    /// Per-stage SRAM `M` (register cells).
    Memory,
    /// Stateful ALUs `F` per stage.
    StatefulAlu,
    /// Stateless ALUs `L` per stage.
    StatelessAlu,
    /// PHV bits `P`.
    Phv,
    /// Program structure (iteration coherence, liveness links) — consumes
    /// no physical resource by itself.
    Structural,
    /// A user-written `assume`.
    Assumption,
}

impl ResourceKind {
    /// Human-readable resource name for explanations.
    pub fn describe(self) -> &'static str {
        match self {
            ResourceKind::Stages => "pipeline stages (S)",
            ResourceKind::Memory => "per-stage SRAM (M)",
            ResourceKind::StatefulAlu => "stateful ALUs (F)",
            ResourceKind::StatelessAlu => "stateless ALUs (L)",
            ResourceKind::Phv => "PHV bits (P)",
            ResourceKind::Structural => "program structure",
            ResourceKind::Assumption => "user assumption",
        }
    }

    /// True for the five physical PISA resources.
    pub fn is_physical(self) -> bool {
        !matches!(self, ResourceKind::Structural | ResourceKind::Assumption)
    }
}

/// Where one ILP constraint row came from, rendered for a row the
/// generator emitted ([`Encoding::provenance_of`]); the infeasibility
/// explainer maps IIS members through this back to elastic structures
/// and source spans.
#[derive(Debug, Clone)]
pub struct RowProvenance {
    /// Human-readable origin, e.g. `precedence incr[0] -> set_min[0]`.
    pub detail: String,
    pub resource: ResourceKind,
    /// Symbolic values implicated by the row.
    pub symbolics: Vec<String>,
    /// Source anchor (loop statement, register declaration, or assume).
    pub span: Option<Span>,
    /// Owning tenant in a joint (multi-tenant) compile, derived from the
    /// `tenant::` prefix its symbolics share. `None` for single-program
    /// compiles and for rows spanning several tenants (shared capacity
    /// rows).
    pub tenant: Option<String>,
}

impl RowProvenance {
    fn new(
        detail: String,
        resource: ResourceKind,
        mut symbolics: Vec<String>,
        span: Option<Span>,
    ) -> Self {
        symbolics.sort();
        symbolics.dedup();
        // All symbolics from one tenant's namespace: the row belongs to
        // that tenant. Mixed or un-namespaced rows stay tenant-less.
        let mut tenants = symbolics.iter().map(|s| p4all_lang::tenant_of(s));
        let tenant = match tenants.next() {
            Some(Some(first)) if tenants.all(|t| t == Some(first)) => Some(first.to_string()),
            _ => None,
        };
        RowProvenance { detail, resource, symbolics, span, tenant }
    }
}

/// What one generated row encodes, with the indices its provenance is
/// rendered from. Groups index [`Encoding::groups`], registers
/// [`Encoding::regs`]; metadata chunks are named by their `d` variable.
#[derive(Debug, Clone, Copy)]
enum RowKind {
    /// #17: inelastic group `g` is placed.
    PlaceOnce { g: usize },
    /// #15: elastic group `g` is placed at most once.
    PlaceAtMostOnce { g: usize },
    /// #6: `a` runs in a stage strictly before `b`.
    Precedence { a: usize, b: usize },
    /// #5: `a` and `b` do not share a stage.
    Exclusion { a: usize, b: usize },
    /// Strict symmetry-breaking order of a family with exclusions.
    StrictOrder { a: usize, b: usize },
    /// Weak symmetry-breaking order of an independent family.
    WeakOrder { a: usize, b: usize },
    /// #7: `a` and `b` of one loop iteration are placed together.
    Coherent { a: usize, b: usize },
    /// #14: chunk `d` is live when a group of its iteration is placed.
    ChunkLive { d: VarId },
    /// Chunk `d` is live only if some group of its iteration is placed.
    ChunkUsed { d: VarId },
    /// #16: chunk `hi` is used only when chunk `lo` is.
    InOrder { lo: VarId, hi: VarId },
    /// #13: elastic metadata fits `budget` PHV bits.
    PhvBudget { budget: f64 },
    /// #9: register instance `r`'s cells sit in its owner's stage.
    Colocate { r: usize },
    /// A fixed-size register instance gets exactly its cells when placed.
    FixedCells { r: usize },
    /// Register instance `r` allocates at most its size symbolic.
    SizeUpper { r: usize },
    /// Register instance `r` gets all of its size symbolic when placed.
    SizeLower { r: usize },
    /// #8: stage `s` fits `bits` of SRAM.
    StageMemory { s: usize, bits: u64 },
    /// #11: stage `s` fits `alus` stateful ALUs.
    StageStateful { s: usize, alus: u32 },
    /// #12: stage `s` fits `alus` stateless ALUs.
    StageStateless { s: usize, alus: u32 },
    /// The `leaf`-th comparison of assume `k`'s conjunction.
    Assume { k: usize, leaf: usize },
}

/// A row's kind and the source span it is anchored at.
#[derive(Debug, Clone, Copy)]
struct RowOrigin {
    kind: RowKind,
    span: Option<Span>,
}

/// Record the origin of `row`, the row the model just appended.
fn record(origins: &mut Vec<RowOrigin>, row: usize, kind: RowKind, span: Option<Span>) {
    debug_assert_eq!(row, origins.len(), "rows are recorded in order");
    origins.push(RowOrigin { kind, span });
}

/// A row or variable name, formatted into one allocation: `format!`
/// sizes its buffer from the literal pieces alone and regrows it for the
/// labels spliced in.
macro_rules! name {
    ($($arg:tt)*) => {{
        let mut name = String::with_capacity(64);
        std::fmt::Write::write_fmt(&mut name, format_args!($($arg)*))
            .expect("formatting into a String cannot fail");
        name
    }};
}

/// An expression over `terms` with no constant.
fn expr(terms: Vec<(VarId, f64)>) -> LinExpr {
    LinExpr { terms, constant: 0.0 }
}

/// `v - Σ rest`. With `v` a group's indicator of stage `s` and `rest`
/// another group's indicators of the stages before `s`, `<= 0` says the
/// first group runs after the other.
fn minus_sum(v: VarId, rest: &[VarId]) -> LinExpr {
    let mut terms = Vec::with_capacity(rest.len() + 1);
    terms.push((v, 1.0));
    terms.extend(rest.iter().map(|&w| (w, -1.0)));
    expr(terms)
}

/// One ILP placement group (a dependency-graph node).
#[derive(Debug, Clone)]
pub struct GroupInfo {
    pub label: String,
    /// Instance indices (into the unrolled program).
    pub members: Vec<usize>,
    /// Iteration tag shared by the members (empty = inelastic).
    pub iters: Vec<Iter>,
    pub stateful_alus: u32,
    pub stateless_alus: u32,
}

/// One register instance requiring memory.
#[derive(Debug, Clone)]
pub struct RegInstanceInfo {
    pub reg: String,
    pub instance: usize,
    pub elem_bits: u32,
    /// Owning group (co-location target).
    pub owner_group: usize,
    /// Elastic cell count (size symbolic) or fixed cells.
    pub cells: Size,
}

/// The generated model plus every handle needed to read the solution back.
#[derive(Debug)]
pub struct Encoding {
    pub model: Model,
    pub groups: Vec<GroupInfo>,
    /// `x[group][stage]`
    pub x: Vec<Vec<VarId>>,
    pub regs: Vec<RegInstanceInfo>,
    /// `c[reg][stage]`
    pub cells: Vec<Vec<VarId>>,
    /// `(count symbolic, iteration) -> d`
    pub d: BTreeMap<(String, usize), VarId>,
    /// size symbolic -> `V_sz`
    pub sizes: BTreeMap<String, VarId>,
    pub stages: usize,
    /// Resource-derived *column* bounds: capacity limits folded directly
    /// into a variable's bounds rather than emitted as rows (e.g. a size
    /// symbolic clamped to what one stage's SRAM can hold). The IIS filter
    /// only sees rows, so the explainer consults this table to attribute
    /// such hidden limits when their symbolics appear in a conflict core.
    pub derived_bounds: Vec<DerivedBound>,
    /// Origin of each generated row, indexed by constraint row.
    origins: Vec<RowOrigin>,
    /// The program encoded: register declarations and assumes, which
    /// provenance is rendered from.
    program: Arc<Program>,
}

/// A capacity limit encoded as a variable bound instead of a row.
#[derive(Debug, Clone)]
pub struct DerivedBound {
    /// The symbolic value whose range the target clamps.
    pub symbolic: String,
    /// The physical resource the clamp derives from.
    pub resource: ResourceKind,
    /// Human-readable statement of the clamp.
    pub detail: String,
    /// Source anchor (the register declaration that forced it).
    pub span: Option<Span>,
}

impl Encoding {
    /// Provenance of a constraint row, rendered from the origin the
    /// generator recorded; `None` for a row added outside the generator.
    pub fn provenance_of(&self, row: usize) -> Option<RowProvenance> {
        use ResourceKind::*;
        let RowOrigin { kind, span } = *self.origins.get(row)?;
        let label = |g: usize| &self.groups[g].label;
        let (detail, resource, symbolics) = match kind {
            RowKind::PlaceOnce { g } => (
                format!("inelastic `{}` must be placed in some stage", label(g)),
                Stages,
                Vec::new(),
            ),
            RowKind::PlaceAtMostOnce { g } => (
                format!("`{}` is placed in at most one stage", label(g)),
                Stages,
                self.group_symbolics(|h| h == g),
            ),
            RowKind::Precedence { a, b } => (
                format!(
                    "`{}` must run in a stage strictly before `{}` (data dependency)",
                    label(a),
                    label(b)
                ),
                Stages,
                self.group_symbolics(|h| h == a || h == b),
            ),
            RowKind::Exclusion { a, b } => (
                format!(
                    "`{}` and `{}` may not share a stage (conflicting accesses)",
                    label(a),
                    label(b)
                ),
                Stages,
                self.group_symbolics(|h| h == a || h == b),
            ),
            RowKind::StrictOrder { a, b } => (
                format!(
                    "iterations `{}` and `{}` are strictly ordered (commutative \
                     accumulator, symmetry breaking)",
                    label(a),
                    label(b)
                ),
                Stages,
                self.group_symbolics(|h| h == a || h == b),
            ),
            RowKind::WeakOrder { a, b } => (
                format!(
                    "iteration `{}` is placed no earlier than `{}` (symmetry breaking)",
                    label(b),
                    label(a)
                ),
                Stages,
                self.group_symbolics(|h| h == a || h == b),
            ),
            RowKind::Coherent { a, b } => (
                format!(
                    "`{}` and `{}` belong to one loop iteration and are placed together",
                    label(a),
                    label(b)
                ),
                Structural,
                self.group_symbolics(|h| h == a),
            ),
            RowKind::ChunkLive { d } => {
                let (v, i) = self.chunk(d);
                (
                    format!("iteration {i} of `{v}` needs its metadata chunk live when placed"),
                    Structural,
                    vec![v.to_string()],
                )
            }
            RowKind::ChunkUsed { d } => {
                let (v, i) = self.chunk(d);
                (
                    format!("metadata chunk {i} of `{v}` is live only if some iteration is placed"),
                    Structural,
                    vec![v.to_string()],
                )
            }
            RowKind::InOrder { lo, hi } => {
                let ((v, lo), (_, hi)) = (self.chunk(lo), self.chunk(hi));
                (
                    format!("iterations of `{v}` are used in order ({lo} before {hi})"),
                    Structural,
                    vec![v.to_string()],
                )
            }
            RowKind::PhvBudget { budget } => (
                format!("elastic metadata must fit the {budget} PHV bits left after fixed fields"),
                Phv,
                // The row's terms are exactly the chunks that take PHV bits.
                self.model.constraints()[row]
                    .terms
                    .iter()
                    .map(|&(dv, _)| self.chunk(dv).0.to_string())
                    .collect(),
            ),
            RowKind::Colocate { r } => (
                format!(
                    "memory of `{}` sits in the stage of its action `{}`",
                    self.register(r),
                    label(self.regs[r].owner_group)
                ),
                Memory,
                self.register_symbolics(|q| q == r),
            ),
            RowKind::FixedCells { r } => {
                let k = match self.regs[r].cells {
                    Size::Const(k) => k,
                    Size::Symbolic(_) => unreachable!("fixed-cell rows are for constant sizes"),
                };
                (
                    format!("`{}` needs exactly {k} cells when placed", self.register(r)),
                    Memory,
                    self.register_symbolics(|q| q == r),
                )
            }
            RowKind::SizeUpper { r } => (
                format!(
                    "`{}` allocates at most `{}` cells",
                    self.register(r),
                    self.size_symbolic(r)
                ),
                Memory,
                self.register_symbolics(|q| q == r),
            ),
            RowKind::SizeLower { r } => (
                format!(
                    "`{}` gets its full `{}` cells when placed (equal row sizes)",
                    self.register(r),
                    self.size_symbolic(r)
                ),
                Memory,
                self.register_symbolics(|q| q == r),
            ),
            RowKind::StageMemory { s, bits } => (
                format!("register memory in stage {s} fits the {bits} bits of per-stage SRAM"),
                Memory,
                self.register_symbolics(|_| true),
            ),
            RowKind::StageStateful { s, alus } => (
                format!("stateful work in stage {s} fits the target's {alus} stateful ALUs"),
                StatefulAlu,
                self.group_symbolics(|g| self.groups[g].stateful_alus > 0),
            ),
            RowKind::StageStateless { s, alus } => (
                format!("stateless work in stage {s} fits the target's {alus} stateless ALUs"),
                StatelessAlu,
                self.group_symbolics(|g| self.groups[g].stateless_alus > 0),
            ),
            RowKind::Assume { k, mut leaf } => {
                let e = conjunct(&self.program.assumes[k].expr, &mut leaf)
                    .expect("an assume row is a comparison of its assume");
                let mut syms = Vec::new();
                collect_symbolics(e, &mut syms);
                (format!("user assumption `{}`", p4all_lang::print_expr(e)), Assumption, syms)
            }
        };
        Some(RowProvenance::new(detail, resource, symbolics, span))
    }

    /// Count symbolics of the iteration tags of the groups `keep` selects.
    fn group_symbolics(&self, keep: impl Fn(usize) -> bool) -> Vec<String> {
        let groups = self.groups.iter().enumerate().filter(|&(g, _)| keep(g));
        groups.flat_map(|(_, grp)| grp.iters.iter().map(|it| it.symbolic.clone())).collect()
    }

    /// Size symbolic and instance-count symbolic of the register instances
    /// `keep` selects.
    fn register_symbolics(&self, keep: impl Fn(usize) -> bool) -> Vec<String> {
        let mut syms = Vec::new();
        for (_, reg) in self.regs.iter().enumerate().filter(|&(r, _)| keep(r)) {
            let Some(decl) = self.program.register(&reg.reg) else { continue };
            syms.extend(decl.cells.symbolic_name().map(str::to_string));
            syms.extend(
                decl.instances.as_ref().and_then(|i| i.symbolic_name()).map(str::to_string),
            );
        }
        syms
    }

    /// `name[instance]` of register instance `r`.
    fn register(&self, r: usize) -> String {
        format!("{}[{}]", self.regs[r].reg, self.regs[r].instance)
    }

    /// The size symbolic of an elastic register instance.
    fn size_symbolic(&self, r: usize) -> &str {
        self.regs[r].cells.symbolic_name().expect("size rows are for symbolic sizes")
    }

    /// `(count symbolic, iteration)` of a metadata chunk variable.
    fn chunk(&self, d: VarId) -> (&str, usize) {
        let ((v, i), _) = self.d.iter().find(|&(_, &dv)| dv == d).expect("a chunk variable");
        (v, *i)
    }
}

/// The `n`-th comparison (counting from 0, left to right) of a conjunction.
fn conjunct<'e>(e: &'e Expr, n: &mut usize) -> Option<&'e Expr> {
    match e {
        Expr::Binary { op: BinOp::And, lhs, rhs } => conjunct(lhs, n).or_else(|| conjunct(rhs, n)),
        _ if *n == 0 => Some(e),
        _ => {
            *n -= 1;
            None
        }
    }
}

/// Generate the ILP for an unrolled program on a target.
pub fn encode(
    info: &ProgramInfo,
    unrolled: &Unrolled,
    graph: &DepGraph,
    target: &TargetSpec,
) -> Result<Encoding, Diagnostic> {
    let stages = target.stages;
    let costs = &target.alu_costs;
    let mut model = Model::new();

    // ---- Groups from dependency-graph nodes ----
    let mut groups: Vec<GroupInfo> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let members = node.members.clone();
        let first: &ActionInstance = &unrolled.instances[members[0]];
        let mut hf = 0u32;
        let mut hl = 0u32;
        for &m in &members {
            let inst = &unrolled.instances[m];
            hf += costs.stateful_cost(inst.ops.iter());
            hl += costs.stateless_cost(inst.ops.iter());
        }
        groups.push(GroupInfo {
            label: node.label.clone(),
            members,
            iters: first.iters.clone(),
            stateful_alus: hf,
            stateless_alus: hl,
        });
    }

    let mut origins: Vec<RowOrigin> = Vec::new();
    let mut derived: Vec<DerivedBound> = Vec::new();
    // Source anchor of each group's rows: its first member's loop statement.
    let gspan: Vec<Span> =
        groups.iter().map(|grp| unrolled.instances[grp.members[0]].span).collect();

    // ---- Iteration symmetry breaking ----
    // Iterations of one elastic loop are interchangeable: any feasible
    // layout can be relabeled so that, within each family of groups that
    // share the same member actions and differ only in the innermost
    // iteration index, stages are non-decreasing in the index (a sorted-
    // matching argument: intra-iteration precedences survive sorting every
    // family, per Hall's condition). Families whose members are linked by
    // exclusion edges get *strict* orderings that replace those exclusion
    // constraints; independent families get weak orderings. This prunes the
    // factorial plateau of equivalent layouts from the branch-and-bound.
    let mut family_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut strict_pairs: Vec<(usize, usize)> = Vec::new();
    let mut weak_pairs: Vec<(usize, usize)> = Vec::new();
    let mut strict_families: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    {
        // Constraint family key: (member bases, iteration prefix, innermost
        // symbolic).
        type FamilyKey<'a> = (Vec<&'a str>, &'a [Iter], &'a str);
        let mut families: BTreeMap<FamilyKey, Vec<(usize, usize)>> = BTreeMap::new();
        for (g, grp) in groups.iter().enumerate() {
            // Inelastic groups (no iteration tag) form no family.
            let Some((last, prefix)) = grp.iters.split_last() else { continue };
            let mut bases: Vec<&str> =
                grp.members.iter().map(|&m| unrolled.instances[m].base.as_str()).collect();
            bases.sort();
            families
                .entry((bases, prefix, last.symbolic.as_str()))
                .or_default()
                .push((last.index, g));
        }
        for (fid, mut members) in families.into_values().enumerate() {
            members.sort_unstable();
            let has_exclusion = members.iter().enumerate().any(|(i, &(_, a))| {
                members[i + 1..]
                    .iter()
                    .any(|&(_, b)| graph.exclusion.contains(&(a.min(b), a.max(b))))
            });
            for &(_, g) in &members {
                family_of.insert(g, fid);
            }
            if has_exclusion {
                strict_families.insert(fid);
            }
            for w in members.windows(2) {
                let (a, b) = (w[0].1, w[1].1);
                if graph.precedence.contains(&(a, b)) || graph.precedence.contains(&(b, a)) {
                    continue; // already strictly ordered by a real dependency
                }
                if has_exclusion {
                    strict_pairs.push((a, b));
                } else {
                    weak_pairs.push((a, b));
                }
            }
        }
    }

    // ---- Placement variables x[g][s]; #15 / #17 ----
    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(groups.len());
    for (g, grp) in groups.iter().enumerate() {
        let vars: Vec<VarId> =
            (0..stages).map(|s| model.binary(name!("x[{}][{s}]", grp.label))).collect();
        let placed = expr(vars.iter().map(|&v| (v, 1.0)).collect());
        if grp.iters.is_empty() {
            let row = model.eq(name!("place_once[{g}]"), placed, 1.0); // #17
            record(&mut origins, row, RowKind::PlaceOnce { g }, Some(gspan[g]));
        } else {
            let row = model.le(name!("place_at_most_once[{g}]"), placed, 1.0); // #15
            record(&mut origins, row, RowKind::PlaceAtMostOnce { g }, Some(gspan[g]));
        }
        x.push(vars);
    }

    // ---- Precedence (#6) and exclusion (#5) ----
    // Transitive reduction: an edge implied by a chain of other enforced
    // strict orderings (precedence or strict family pairs) is redundant —
    // chain-heavy programs (e.g. a key-value store's per-slice reads)
    // otherwise emit O(K^2 * S) constraints for what K-1 edges express.
    let reduced_precedence: Vec<(usize, usize)> = {
        let n = groups.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in graph.precedence.iter().chain(&strict_pairs) {
            adj[a].push(b);
        }
        // Is `to` reachable from `from` without the edge `from -> to`? One
        // pair of search buffers serves every edge.
        let (mut seen, mut stack) = (vec![false; n], Vec::new());
        let mut implied = |from: usize, to: usize| -> bool {
            seen.fill(false);
            stack.clear();
            stack.push(from);
            seen[from] = true;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if (v, w) == (from, to) || seen[w] {
                        continue;
                    }
                    if w == to {
                        return true;
                    }
                    seen[w] = true;
                    stack.push(w);
                }
            }
            false
        };
        graph.precedence.iter().copied().filter(|&(a, b)| !implied(a, b)).collect()
    };
    for &(a, b) in &reduced_precedence {
        for s in 0..stages {
            let row = model.le(name!("prec[{a}->{b}][{s}]"), minus_sum(x[b][s], &x[a][..s]), 0.0);
            record(&mut origins, row, RowKind::Precedence { a, b }, Some(gspan[b]));
        }
    }
    for &(a, b) in &graph.exclusion {
        // Exclusions inside a strictly-ordered family are implied by the
        // symmetry-breaking chain below.
        if let (Some(fa), Some(fb)) = (family_of.get(&a), family_of.get(&b)) {
            if fa == fb && strict_families.contains(fa) {
                continue;
            }
        }
        for s in 0..stages {
            let row = model.le(
                name!("excl[{a}--{b}][{s}]"),
                expr(vec![(x[a][s], 1.0), (x[b][s], 1.0)]),
                1.0,
            );
            record(&mut origins, row, RowKind::Exclusion { a, b }, Some(gspan[b]));
        }
    }
    // Strict family orderings (commutative accumulators): same per-stage
    // encoding as precedence.
    for &(a, b) in &strict_pairs {
        for s in 0..stages {
            let row =
                model.le(name!("sym_strict[{a}->{b}][{s}]"), minus_sum(x[b][s], &x[a][..s]), 0.0);
            record(&mut origins, row, RowKind::StrictOrder { a, b }, Some(gspan[b]));
        }
    }
    // Weak family orderings: stage index of the later iteration is no
    // smaller, when it is placed at all.
    for &(a, b) in &weak_pairs {
        // stage(b) >= stage(a) - S*(1 - placed(b)): `Σ s*x[b][s] - s*x[a][s]`,
        // then `- S*x[b][s]`, plus the constant S. Each x[b][s] appears twice,
        // and the model sums a variable's coefficients in the order pushed.
        let big = stages as f64;
        let mut terms = Vec::with_capacity(3 * stages);
        for s in 0..stages {
            terms.push((x[b][s], s as f64));
            terms.push((x[a][s], -(s as f64)));
        }
        terms.extend(x[b].iter().map(|&v| (v, -big)));
        let row = model.ge(name!("sym_weak[{a}<={b}]"), LinExpr { terms, constant: big }, 0.0);
        record(&mut origins, row, RowKind::WeakOrder { a, b }, Some(gspan[b]));
    }

    // ---- Iteration coherence (#7) ----
    // Groups with the same full tag exist together.
    {
        let mut by_tag: BTreeMap<&[Iter], Vec<usize>> = BTreeMap::new();
        for (g, grp) in groups.iter().enumerate() {
            if !grp.iters.is_empty() {
                by_tag.entry(&grp.iters).or_default().push(g);
            }
        }
        for (tag, gs) in &by_tag {
            for w in gs.windows(2) {
                let (a, b) = (w[0], w[1]);
                let mut terms = Vec::with_capacity(2 * stages);
                terms.extend(x[a].iter().map(|&v| (v, 1.0)));
                terms.extend(x[b].iter().map(|&v| (v, -1.0)));
                let row = model.eq(name!("coherent[{tag:?}][{a}=={b}]"), expr(terms), 0.0);
                record(&mut origins, row, RowKind::Coherent { a, b }, Some(gspan[a]));
            }
        }
    }

    // ---- Metadata chunk indicators d[(v,i)] (#13, #14) and ordering (#16) ----
    let mut d: BTreeMap<(String, usize), VarId> = BTreeMap::new();
    // `(v, i) -> (d, groups of iteration i of v)`
    let mut d_groups: BTreeMap<(&str, usize), (VarId, Vec<usize>)> = BTreeMap::new();
    for (g, grp) in groups.iter().enumerate() {
        for it in &grp.iters {
            let (_, members) = d_groups.entry((&it.symbolic, it.index)).or_insert_with(|| {
                let dv = model.binary(name!("d[{}][{}]", it.symbolic, it.index));
                d.insert((it.symbolic.clone(), it.index), dv);
                (dv, Vec::new())
            });
            members.push(g);
        }
    }
    for (&(v, i), &(dv, ref gs)) in &d_groups {
        for &g in gs {
            // d >= placed(g)  (#14)
            let row = model.ge(name!("d_lb[{v}][{i}][{g}]"), minus_sum(dv, &x[g]), 0.0);
            record(&mut origins, row, RowKind::ChunkLive { d: dv }, Some(gspan[g]));
        }
        // d <= sum placed: the chunk is live only if some iteration ran.
        let mut terms = Vec::with_capacity(1 + gs.len() * stages);
        terms.push((dv, 1.0));
        for &g in gs {
            terms.extend(x[g].iter().map(|&v| (v, -1.0)));
        }
        let row = model.le(name!("d_ub[{v}][{i}]"), expr(terms), 0.0);
        record(&mut origins, row, RowKind::ChunkUsed { d: dv }, None);
    }
    // In-order iterations (#16): d[v][i+1] <= d[v][i], over neighbouring
    // iterations of one symbolic (the map sorts them together).
    for (((v, lo_i), &lo), ((w, hi_i), &hi)) in d.iter().zip(d.iter().skip(1)) {
        if v == w {
            let row = model.le(
                name!("order[{v}][{hi_i}<={lo_i}]"),
                expr(vec![(hi, 1.0), (lo, -1.0)]),
                0.0,
            );
            record(&mut origins, row, RowKind::InOrder { lo, hi }, None);
        }
    }

    // ---- PHV budget (#13) ----
    {
        let program_fixed = info.fixed_phv_bits();
        let target_budget = target.phv_elastic_bits();
        if program_fixed > target_budget {
            return Err(Diagnostic::error(format!(
                "fixed headers/metadata need {program_fixed} PHV bits but target `{}` \
                 provides only {target_budget}",
                target.name
            ))
            .with_note(
                "fixed fields are allocated before any elastic structure; shrink headers \
                 or scalar metadata",
            ));
        }
        let budget = (target_budget - program_fixed) as f64;
        let used: Vec<(VarId, f64)> = d
            .iter()
            .map(|((v, _), &dv)| (dv, info.meta_chunk_bits(v) as f64))
            .filter(|&(_, bits)| bits > 0.0)
            .collect();
        if !used.is_empty() {
            let row = model.le("phv_budget", expr(used), budget);
            record(&mut origins, row, RowKind::PhvBudget { budget }, None);
        }
    }

    // ---- Register instances, memory variables, co-location ----
    let mut regs: Vec<RegInstanceInfo> = Vec::new();
    let mut cells: Vec<Vec<VarId>> = Vec::new();
    let mut sizes: BTreeMap<String, VarId> = BTreeMap::new();
    {
        // Owner group of each (reg, instance).
        let mut owner: BTreeMap<(&str, usize), usize> = BTreeMap::new();
        for (g, grp) in groups.iter().enumerate() {
            for &m in &grp.members {
                if let Some(r) = &unrolled.instances[m].reg {
                    owner.insert((&r.reg, r.instance), g);
                }
            }
        }
        for ((reg_name, instance), owner_group) in owner {
            let decl = info.program.register(reg_name).ok_or_else(|| {
                Diagnostic::internal(format!(
                    "unrolled instance references undeclared register `{reg_name}`"
                ))
            })?;
            let span = Some(decl.span);
            let cap = (target.memory_bits / decl.elem_bits as u64).max(1);
            let r = regs.len();
            let svars: Vec<VarId> = (0..stages)
                .map(|s| model.integer(name!("c[{reg_name}[{instance}]][{s}]"), 0.0, cap as f64))
                .collect();
            // #9: cells only where the owner sits.
            for s in 0..stages {
                let row = model.le(
                    name!("colocate[{reg_name}[{instance}]][{s}]"),
                    expr(vec![(svars[s], 1.0), (x[owner_group][s], -(cap as f64))]),
                    0.0,
                );
                record(&mut origins, row, RowKind::Colocate { r }, span);
            }
            // `total - k * placed` for the register's cells `total` and its
            // owner's placement `placed`, plus `extra` between the two.
            let cells_against_placed = |k: f64, extra: Option<(VarId, f64)>| {
                let mut terms = Vec::with_capacity(2 * stages + 1);
                terms.extend(svars.iter().map(|&v| (v, 1.0)));
                terms.extend(extra);
                terms.extend(x[owner_group].iter().map(|&v| (v, -k)));
                terms
            };
            match &decl.cells {
                Size::Const(k) => {
                    // Exactly k cells when placed, 0 otherwise.
                    let row = model.eq(
                        name!("fixed_cells[{reg_name}[{instance}]]"),
                        expr(cells_against_placed(*k as f64, None)),
                        0.0,
                    );
                    record(&mut origins, row, RowKind::FixedCells { r }, span);
                }
                Size::Symbolic(sz) => {
                    let vsz = match sizes.get(sz) {
                        Some(&v) => v,
                        None => {
                            let mined = info.mined.get(sz).copied().unwrap_or_default();
                            let lo = mined.lo.unwrap_or(1).max(1) as f64;
                            let mined_hi = mined.hi.map(|h| h as f64);
                            let hi = mined_hi.unwrap_or(cap as f64).min(cap as f64);
                            // When the target's SRAM (not the program's own
                            // assumes) is what caps this symbolic, remember
                            // that: the clamp lives in a column bound the
                            // IIS filter can't see.
                            if mined_hi.is_none_or(|h| h > cap as f64) {
                                derived.push(DerivedBound {
                                    symbolic: sz.clone(),
                                    resource: ResourceKind::Memory,
                                    detail: format!(
                                        "one stage's SRAM holds at most {cap} cells of \
                                         `{reg_name}`, capping `{sz}`"
                                    ),
                                    span,
                                });
                            }
                            let v = model.integer(name!("V[{sz}]"), lo, hi);
                            sizes.insert(sz.clone(), v);
                            v
                        }
                    };
                    // total <= V_sz ; total >= V_sz - cap*(1 - placed).
                    let mut terms = Vec::with_capacity(stages + 1);
                    terms.extend(svars.iter().map(|&v| (v, 1.0)));
                    terms.push((vsz, -1.0));
                    let row = model.le(name!("size_ub[{reg_name}[{instance}]]"), expr(terms), 0.0);
                    record(&mut origins, row, RowKind::SizeUpper { r }, span);
                    let row = model.ge(
                        name!("size_lb[{reg_name}[{instance}]]"),
                        LinExpr {
                            terms: cells_against_placed(cap as f64, Some((vsz, -1.0))),
                            constant: cap as f64,
                        },
                        0.0,
                    );
                    record(&mut origins, row, RowKind::SizeLower { r }, span);
                }
            }
            regs.push(RegInstanceInfo {
                reg: reg_name.to_string(),
                instance,
                elem_bits: decl.elem_bits,
                owner_group,
                cells: decl.cells.clone(),
            });
            cells.push(svars);
        }
    }

    // Size symbolics used only as hash ranges (no register) still need a
    // variable so assumes/utility can mention them.
    for sz in info.size_symbolics() {
        sizes.entry(sz.to_string()).or_insert_with(|| {
            let mined = info.mined.get(sz).copied().unwrap_or_default();
            let lo = mined.lo.unwrap_or(1).max(1) as f64;
            let hi = mined.hi.unwrap_or(1 << 20) as f64;
            model.integer(name!("V[{sz}]"), lo, hi)
        });
    }

    // ---- Per-stage memory (#8) and ALU budgets (#11, #12) ----
    for s in 0..stages {
        if !cells.is_empty() {
            let mem = cells.iter().zip(&regs).map(|(c, r)| (c[s], r.elem_bits as f64));
            let bits = target.memory_bits;
            let row = model.le(name!("stage_mem[{s}]"), expr(mem.collect()), bits as f64);
            record(&mut origins, row, RowKind::StageMemory { s, bits }, None);
        }
        let per_group = |alus: fn(&GroupInfo) -> u32| -> Vec<(VarId, f64)> {
            let used = groups.iter().zip(&x).filter(|(grp, _)| alus(grp) > 0);
            used.map(|(grp, xs)| (xs[s], alus(grp) as f64)).collect()
        };
        let hf = per_group(|grp| grp.stateful_alus);
        if !hf.is_empty() {
            let alus = target.stateful_alus;
            let row = model.le(name!("stage_hf[{s}]"), expr(hf), alus as f64);
            record(&mut origins, row, RowKind::StageStateful { s, alus }, None);
        }
        let hl = per_group(|grp| grp.stateless_alus);
        if !hl.is_empty() {
            let alus = target.stateless_alus;
            let row = model.le(name!("stage_hl[{s}]"), expr(hl), alus as f64);
            record(&mut origins, row, RowKind::StageStateless { s, alus }, None);
        }
    }

    // Branching priorities: memory sizes last — their LP optimum is
    // usually integral once placements are fixed. (Boosting iteration
    // indicators above placements was measured slower: placements carry
    // the real contention.)
    for &sv in sizes.values() {
        model.set_branch_priority(sv, -10);
    }

    let mut enc = Encoding {
        model,
        groups,
        x,
        regs,
        cells,
        d,
        sizes,
        stages,
        derived_bounds: derived,
        origins,
        program: Arc::clone(&info.program),
    };

    // ---- User assumes ----
    for (k, a) in info.program.assumes.iter().enumerate() {
        add_assume(&mut enc, info, &a.expr, a.span, &format!("assume{k}"), (k, &mut 0))?;
    }

    // ---- Objective ----
    let objective = match &info.program.optimize {
        Some(u) => linearize(&enc, info, u, Span::default())?,
        None => {
            // Default utility: stretch everything — placements first, then
            // total memory (lightly weighted so it never trades a placement
            // for cells).
            let placements = enc.x.iter().flatten().map(|&v| (v, 1.0));
            let memory = enc.cells.iter().flatten().map(|&v| (v, 1e-4));
            expr(placements.chain(memory).collect())
        }
    };
    enc.model.set_objective(objective, Sense::Maximize);

    Ok(enc)
}

/// Linearize a utility/assume expression over the encoding's variables.
///
/// Supported shapes: numeric literals, count symbolics (`Σ_i d[v][i]`),
/// size symbolics (`V_sz`), sums/differences, scaling by constants,
/// division by constants, and the product `count * size` when one register
/// declaration pairs those extents (linearized as total allocated cells of
/// that register family).
fn linearize(
    enc: &Encoding,
    info: &ProgramInfo,
    e: &Expr,
    span: Span,
) -> Result<LinExpr, Diagnostic> {
    if let Some(c) = const_value(e) { return Ok(LinExpr::constant(c)) }
    match e {
        Expr::Symbolic(name) => match info.roles.get(name) {
            Some(SymRole::Count) => {
                let mut sum = LinExpr::zero();
                for ((v, _), &dv) in &enc.d {
                    if v == name {
                        sum.add_term(dv, 1.0);
                    }
                }
                Ok(sum)
            }
            Some(SymRole::Size) => match enc.sizes.get(name) {
                Some(&v) => Ok(LinExpr::from(v)),
                None => Err(Diagnostic::internal(format!(
                    "size symbolic `{name}` has no variable in this encoding"
                ))
                .with_span(span)),
            },
            None => Err(Diagnostic::error_at(format!("unknown symbolic `{name}`"), span)
                .with_note("declare it with `symbolic int ...;` and use it in the program")),
        },
        Expr::Unary { op: UnOp::Neg, operand } => Ok(-linearize(enc, info, operand, span)?),
        Expr::Binary { op: BinOp::Add, lhs, rhs } => {
            Ok(linearize(enc, info, lhs, span)? + linearize(enc, info, rhs, span)?)
        }
        Expr::Binary { op: BinOp::Sub, lhs, rhs } => {
            Ok(linearize(enc, info, lhs, span)? - linearize(enc, info, rhs, span)?)
        }
        Expr::Binary { op: BinOp::Mul, lhs, rhs } => {
            if let Some(k) = const_value(lhs) {
                return Ok(linearize(enc, info, rhs, span)? * k);
            }
            if let Some(k) = const_value(rhs) {
                return Ok(linearize(enc, info, lhs, span)? * k);
            }
            // count * size over one register family -> total cells.
            if let (Expr::Symbolic(a), Expr::Symbolic(b)) = (&**lhs, &**rhs) {
                if let Some(expr) = product_cells(enc, info, a, b) {
                    return Ok(expr);
                }
            }
            Err(Diagnostic::error_at(
                "non-linear utility term: products must be `constant * expr` or \
                 `count * size` of one register array",
                span,
            ))
        }
        Expr::Binary { op: BinOp::Div, lhs, rhs } => match const_value(rhs) {
            Some(k) if k != 0.0 => Ok(linearize(enc, info, lhs, span)? * (1.0 / k)),
            _ => Err(Diagnostic::error_at("division by a non-constant in utility", span)),
        },
        other => Err(Diagnostic::error_at(
            format!("expression not allowed in utility/assume: {other:?}"),
            span,
        )),
    }
}

/// `rows * cols` where some register is declared `[cols][rows]` — the
/// product equals the total cells allocated to that register family.
fn product_cells(
    enc: &Encoding,
    info: &ProgramInfo,
    a: &str,
    b: &str,
) -> Option<LinExpr> {
    let (count, size) = match (info.roles.get(a), info.roles.get(b)) {
        (Some(SymRole::Count), Some(SymRole::Size)) => (a, b),
        (Some(SymRole::Size), Some(SymRole::Count)) => (b, a),
        _ => return None,
    };
    let decl = info.program.registers.iter().find(|r| {
        r.cells.symbolic_name() == Some(size)
            && r.instances.as_ref().and_then(|i| i.symbolic_name()) == Some(count)
    })?;
    let mut sum = LinExpr::zero();
    for (r, svars) in enc.cells.iter().enumerate() {
        if enc.regs[r].reg == decl.name {
            for &v in svars {
                sum.add_term(v, 1.0);
            }
        }
    }
    Some(sum)
}

/// Collect every symbolic name mentioned in an expression.
fn collect_symbolics(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Symbolic(name) => out.push(name.clone()),
        Expr::Unary { operand, .. } => collect_symbolics(operand, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_symbolics(lhs, out);
            collect_symbolics(rhs, out);
        }
        _ => {}
    }
}

fn const_value(e: &Expr) -> Option<f64> {
    match e {
        Expr::Int(v) => Some(*v as f64),
        Expr::Float(v) => Some(*v),
        Expr::Unary { op: UnOp::Neg, operand } => const_value(operand).map(|v| -v),
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (const_value(lhs)?, const_value(rhs)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                BinOp::Div if b != 0.0 => Some(a / b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Add an `assume` expression as ILP constraints. Conjunctions split;
/// comparisons become linear rows. Disjunctions are rejected (non-convex).
/// `(k, leaf)` is the assume's index and the number of comparisons of it
/// already added.
fn add_assume(
    enc: &mut Encoding,
    info: &ProgramInfo,
    e: &Expr,
    span: Span,
    name: &str,
    (k, leaf): (usize, &mut usize),
) -> Result<(), Diagnostic> {
    match e {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            add_assume(enc, info, lhs, span, &format!("{name}.l"), (k, &mut *leaf))?;
            add_assume(enc, info, rhs, span, &format!("{name}.r"), (k, leaf))
        }
        Expr::Binary { op, lhs, rhs }
            if matches!(op, BinOp::Le | BinOp::Lt | BinOp::Ge | BinOp::Gt | BinOp::Eq) =>
        {
            let l = linearize(enc, info, lhs, span)?;
            let r = linearize(enc, info, rhs, span)?;
            let diff = l - r;
            let row = match op {
                BinOp::Le => enc.model.le(name, diff, 0.0),
                BinOp::Lt => enc.model.le(name, diff, -1.0),
                BinOp::Ge => enc.model.ge(name, diff, 0.0),
                BinOp::Gt => enc.model.ge(name, diff, 1.0),
                BinOp::Eq => enc.model.eq(name, diff, 0.0),
                // Guarded by the `matches!` arm pattern above.
                _ => return Err(Diagnostic::internal("non-comparison op in assume arm")),
            };
            record(&mut enc.origins, row, RowKind::Assume { k, leaf: *leaf }, Some(span));
            *leaf += 1;
            Ok(())
        }
        _ => Err(Diagnostic::error_at(
            "assume must be a conjunction of linear comparisons over symbolic values",
            span,
        )),
    }
}

/// Translate a (greedy) [`crate::solution::Layout`] into an assignment
/// vector for this encoding, usable as a branch-and-bound warm start. The
/// result is only a *candidate* — the solver re-checks feasibility before
/// adopting it as the incumbent.
pub fn warm_start_from_layout(enc: &Encoding, layout: &crate::solution::Layout) -> Vec<f64> {
    let mut vals = vec![0.0; enc.model.num_vars()];
    for p in &layout.placements {
        if p.group < enc.x.len() && p.stage < enc.stages {
            vals[enc.x[p.group][p.stage].index()] = 1.0;
        }
    }
    for (r, ri) in enc.regs.iter().enumerate() {
        if let Some(alloc) = layout
            .registers
            .iter()
            .find(|a| a.reg == ri.reg && a.instance == ri.instance)
        {
            vals[enc.cells[r][alloc.stage].index()] = alloc.cells as f64;
        }
    }
    for ((v, i), &dv) in &enc.d {
        let live = enc.groups.iter().enumerate().any(|(g, grp)| {
            grp.iters.iter().any(|it| it.symbolic == *v && it.index == *i)
                && layout.placements.iter().any(|p| p.group == g)
        });
        if live {
            vals[dv.index()] = 1.0;
        }
    }
    for (sz, &v) in &enc.sizes {
        let lb = enc.model.var(v).lb;
        let val = layout.symbol_values.get(sz).copied().unwrap_or(0) as f64;
        vals[v.index()] = val.max(lb);
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::build_full;
    use crate::elaborate::elaborate;
    use crate::ir::instantiate;
    use p4all_ilp::{solve, SolveStatus};
    use p4all_lang::parse;
    use p4all_pisa::presets;

    const CMS: &str = r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= 1 && rows <= 2;
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

    fn encode_cms(rows: usize) -> (Encoding, std::sync::Arc<p4all_lang::ast::Program>) {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let target = presets::paper_example();
        let enc = {
            let info = elaborate(&p).unwrap();
            let mut bounds = BTreeMap::new();
            bounds.insert("rows".to_string(), rows);
            let u = instantiate(&info, &bounds).unwrap();
            let g = build_full(&u);
            encode(&info, &u, &g, &target).unwrap()
        };
        (enc, p)
    }

    #[test]
    fn encoding_shape() {
        let (enc, _) = encode_cms(2);
        assert_eq!(enc.groups.len(), 4); // incr[0..2], set_min[0..2]
        assert_eq!(enc.x.len(), 4);
        assert_eq!(enc.x[0].len(), 3); // 3 stages
        assert_eq!(enc.regs.len(), 2); // cms[0], cms[1]
        assert_eq!(enc.d.len(), 2); // d[rows][0], d[rows][1]
        assert!(enc.sizes.contains_key("cols"));
    }

    /// The §4 example target: 3 stages, M=2048b, F=L=2. The stateless ALU
    /// budget makes two co-optimal layouts: both rows in stage 0 sharing
    /// memory (2 x 32 cols) or one row with all of it (1 x 64 cols). The
    /// optimum utility is 64 total counters either way.
    #[test]
    fn solving_cms_on_paper_example_target() {
        let (enc, _) = encode_cms(2);
        let out = solve(&enc.model).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        let sol = out.solution.unwrap();
        let cols = sol.int_value(enc.sizes["cols"]);
        let rows: i64 = enc.d.values().map(|&v| sol.int_value(v)).sum();
        assert!((1..=2).contains(&rows));
        assert_eq!(rows * cols, 64, "optimal utility is 64 total counters");
        assert!((sol.objective - (rows * cols) as f64).abs() < 1e-6);
    }

    #[test]
    fn precedence_respected_in_solution() {
        let (enc, _) = encode_cms(2);
        let out = solve(&enc.model).unwrap();
        let sol = out.solution.unwrap();
        let stage_of = |g: usize| -> Option<usize> {
            (0..enc.stages).find(|&s| sol.int_value(enc.x[g][s]) == 1)
        };
        // Group order: incr[0], incr[1], set_min[0], set_min[1]. Iteration
        // coherence: incr[i] placed iff set_min[i] placed; when placed the
        // incr must be strictly earlier.
        let mut placed_pairs = 0;
        for i in 0..2 {
            match (stage_of(i), stage_of(2 + i)) {
                (Some(si), Some(sm)) => {
                    assert!(si < sm, "incr[{i}] at {si} must precede set_min[{i}] at {sm}");
                    placed_pairs += 1;
                }
                (None, None) => {}
                other => panic!("iteration {i} half-placed: {other:?}"),
            }
        }
        assert!(placed_pairs >= 1);
        if let (Some(a), Some(b)) = (stage_of(2), stage_of(3)) {
            assert_ne!(a, b, "commutative set_mins must not share a stage");
        }
    }

    #[test]
    fn assume_upper_bound_enforced() {
        let src = CMS.replace("assume cols >= 4;", "assume cols >= 4 && cols <= 10;");
        let p = std::sync::Arc::new(parse(&src).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let target = presets::paper_example();
        let enc = encode(&info, &u, &g, &target).unwrap();
        let out = solve(&enc.model).unwrap();
        let sol = out.solution.unwrap();
        assert!(sol.int_value(enc.sizes["cols"]) <= 10);
    }

    #[test]
    fn infeasible_when_phv_too_small() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let mut target = presets::paper_example();
        target.phv_fixed_bits = target.phv_bits - 32; // nothing left beyond hdr.key...
        let r = encode(&info, &u, &g, &target);
        // fixed program PHV (key 32 + min 32 = 64) exceeds the 32 available.
        assert!(r.is_err());
    }

    #[test]
    fn nonlinear_utility_rejected() {
        // rows * rows has no register family pairing.
        let src = CMS.replace("optimize rows * cols;", "optimize rows * rows;");
        let p = std::sync::Arc::new(parse(&src).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let target = presets::paper_example();
        let e = encode(&info, &u, &g, &target).unwrap_err();
        assert!(e.message.contains("non-linear"), "{e}");
    }

    #[test]
    fn weighted_utility_linearizes() {
        let src = CMS.replace(
            "optimize rows * cols;",
            "optimize 0.4 * (rows * cols) + 0.6 * rows;",
        );
        let p = std::sync::Arc::new(parse(&src).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let target = presets::paper_example();
        let enc = encode(&info, &u, &g, &target).unwrap();
        let out = solve(&enc.model).unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
    }

    #[test]
    fn memory_constraint_binds() {
        // Tiny memory: 128 bits per stage -> 4 cells of 32b.
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        let g = build_full(&u);
        let mut target = presets::paper_example();
        target.memory_bits = 128;
        let enc = encode(&info, &u, &g, &target).unwrap();
        let out = solve(&enc.model).unwrap();
        let sol = out.solution.unwrap();
        assert_eq!(sol.int_value(enc.sizes["cols"]), 4);
    }
}
