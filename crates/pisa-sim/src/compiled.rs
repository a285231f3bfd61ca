//! The bytecode backend: a flat, slot-resolved register machine.
//!
//! `lower` takes the slot-indexed action trees the reference
//! interpreter walks ([`crate::interp`]) and flattens them into one
//! contiguous instruction stream. The instruction set is built around
//! inline operands (`Opnd`): an instruction input is a temp, a static
//! PHV slot, or an immediate, so constants and plain field reads cost
//! zero dispatches. On top of that, the lowerer fuses the patterns the
//! interpreter pays for dearly:
//!
//! - guards and `if` conditions become fused compare-and-branch
//!   (`Instr::JF`/`Instr::JT`) instead of a materialized boolean plus
//!   a separate test, and *pure* `&&`/`||` chains lower structurally into
//!   branch sequences (skipping a pure operand is unobservable — it
//!   cannot fault and has no effects — so the interpreter's
//!   both-operands-evaluated semantics are preserved); a comparison of a
//!   slot with an immediate is decided at lowering into a range check
//!   (`Test::Slot`), so the branch decodes no operator or operand;
//! - the ubiquitous single-input `hash(x, range)`-to-slot statement
//!   becomes one `Instr::Hash1Mask`/`Instr::Hash1Mod` with the salt
//!   pre-mixed at lower time;
//! - the sketch idiom `reg[c] = reg[c] + v` becomes one `Instr::RegAdd`;
//! - a hash into an index slot and the register access through it become
//!   one `Instr::HashRead`/`Instr::HashAdd` (with the read-back of a
//!   count, one `Instr::SketchStep`) where the range pass proves the index
//!   in bounds, so the fused access has no fault path;
//! - a guard over one store becomes a select (`Instr::CondStore`, and
//!   `Instr::MinOrInit` for the running minimum);
//! - a table apply is a single `Instr::Apply` whose key operands are
//!   read inline and probed in the flat table (`flat_table.rs`); the
//!   control plane resolves action names and action-data field names to
//!   dense indices *at install time*.
//!
//! A stage is one contiguous code range and the stages lie back to back,
//! so a whole packet is a single dispatch loop: **zero** string hashing,
//! no per-packet clones, no per-action call overhead. A whole trace is one
//! loop around it (`run_trace`), which pays the per-trace work once.
//!
//! Per-stage cost (`stage_cost`) is static except where a packet leaves
//! the straight line, so it is charged by length, not counted by
//! dispatch: a packet is charged every stage's instruction count up
//! front (a trace, all its packets at once), a *taken* jump gives back the
//! instructions it skipped, an `Apply` that runs an action body charges
//! the body's length to its own stage, and a fault gives back what was
//! never reached. The counters are exact at the end of every `run_packet`
//! and every `run_trace`, and never dip below their value before the
//! charge.
//!
//! Rollback is paid for only where a fault can follow a register write.
//! One build-time scan (`fault_after_write`) decides it per program;
//! where no instruction that may fault comes after a write, a faulting
//! packet has written nothing, and the loop runs with its undo log
//! compiled away (`exec_range`'s `UNDO = false`). Whether an index may
//! fault is the answer of one forward range pass (`slot_ranges`), which
//! bounds every slot at every pc from hash masks, field widths,
//! immediates and install contracts: a metadata field that only action
//! data sets and that indexes a register gets a limit the control plane
//! enforces at install (`Contract`), so the index it holds is in bounds.
//!
//! The engine runs **in place** on one PHV buffer, as the interpreter
//! does: an action sees all earlier writes of its stage, as a PISA
//! stateful ALU does. The PHV *after a faulting packet* is unspecified in
//! every engine (the packet is dropped; only the register rollback is
//! contractual).
//!
//! Semantics are otherwise pinned to the interpreter by
//! `tests/backend_equivalence.rs`: same evaluation order (faultable
//! sub-expressions still lower to temps in source order; only pure
//! operands fold inline), same error surface, same hash function.

use std::sync::Arc;

use p4all_lang::ast::BinOp;

use crate::flat_table::Table;
use crate::interp::{rollback, CDst, CExpr, CStmt, RegUndo, SimError, Switch};
use crate::name_map::NameMap;
use crate::state::{Phv, RegState};

/// Index into the per-packet temporary file.
pub(crate) type Temp = u16;

/// An inline instruction operand: a temp, a static PHV slot (read from
/// the stage write buffer at execution time), or an immediate. Pure
/// values (constants, plain field reads) fold into the consuming
/// instruction instead of costing a dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opnd {
    /// Temporary `t[i]`.
    T(Temp),
    /// Static PHV slot.
    S(u32),
    /// Immediate.
    I(u64),
}

/// The comparison a conditional jump tests.
///
/// Guards compare a PHV slot with a constant almost always (`hit == 1`,
/// `slice == k`, `flag != 0`), so that shape is decided at lowering: the
/// operator and the immediate fold into one wrapping range check, and a
/// packet pays no operator or operand decode for it. Temps and
/// slot-vs-slot comparisons keep the generic form, boxed so that a
/// fused two-comparison jump stays smaller than a `SketchStep`.
#[derive(Clone, PartialEq, Eq)]
pub(crate) enum Test {
    /// `(phv[slot] - lo <= span) != neg`, wrapping: `phv[slot]` lies in
    /// `lo..=lo + span`, or outside it when `neg`. Every comparison of a
    /// slot with an immediate has this form ([`Test::new`]).
    Slot { slot: u32, neg: bool, lo: u64, span: u64 },
    /// `a <op> b` (`op` a comparison), decoded per packet.
    Opnds(Box<(BinOp, Opnd, Opnd)>),
}

impl Test {
    /// `a <op> b` for a comparison `op`, as a range check when one side is
    /// a slot and the other an immediate.
    fn new(op: BinOp, a: Opnd, b: Opnd) -> Test {
        let (slot, op, k) = match (a, b) {
            (Opnd::S(s), Opnd::I(k)) => (s, op, k),
            (Opnd::I(k), Opnd::S(s)) => (s, mirror(op), k),
            _ => return Test::Opnds(Box::new((op, a, b))),
        };
        // x == k: x in k..=k.  x <= k: x in 0..=k.  x >= k: x in k..=MAX.
        // The other three are their complements.
        let (neg, lo, span) = match op {
            BinOp::Eq => (false, k, 0),
            BinOp::Ne => (true, k, 0),
            BinOp::Le => (false, 0, k),
            BinOp::Gt => (true, 0, k),
            BinOp::Ge => (false, k, u64::MAX - k),
            BinOp::Lt => (true, k, u64::MAX - k),
            other => unreachable!("non-comparison {other:?} in a branch"),
        };
        Test::Slot { slot, neg, lo, span }
    }
}

/// `op` with its operands swapped: `k < x` is `x > k`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Listings print a test as the comparison it was lowered from, e.g.
/// `S(8) == 1` or `T(0) != I(0)`.
impl std::fmt::Debug for Test {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Test::Opnds(ref c) => {
                let op = match c.0 {
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    _ => ">=",
                };
                write!(f, "{:?} {op} {:?}", c.1, c.2)
            }
            // [`Test::new`] builds three ranges; `neg` is the complement.
            Test::Slot { slot, neg, lo, span } => {
                let (ops, k) = match (span, lo) {
                    (0, _) => (["==", "!="], lo),
                    (_, 0) => (["<=", ">"], span),
                    _ => ([">=", "<"], lo),
                };
                write!(f, "S({slot}) {} {k}", ops[usize::from(neg)])
            }
        }
    }
}

/// One register-machine instruction. Slot/register/table references are
/// dense indices fixed at build time; `diag` indexes the side table of
/// error strings so the hot path carries no `String`s.
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    /// `t[dst] = phv[base + idx]`, bounds-checked against `count`.
    LoadSlotDyn { dst: Temp, base: u32, count: u32, idx: Opnd, diag: u16 },
    /// `t[dst] = reg[cell]`, bounds-checked.
    LoadReg { dst: Temp, reg: u16, cell: Opnd },
    /// `t[dst] = a <op> b` (wrapping; comparisons yield 0/1).
    Bin { dst: Temp, op: BinOp, a: Opnd, b: Opnd },
    /// `t[dst] = (a == 0)`
    Not { dst: Temp, a: Opnd },
    /// `t[dst] = -a` (wrapping)
    Neg { dst: Temp, a: Opnd },
    /// `t[dst] = val` — seeds a multi-input hash chain with the pre-mixed
    /// salt.
    HashInit { dst: Temp, val: u64 },
    /// `t[acc] = splitmix(t[acc] ^ src)`
    HashMix { acc: Temp, src: Opnd },
    /// `t[acc] = t[acc] % range` (`range` is nonzero by construction).
    HashMod { acc: Temp, range: u64 },
    /// `t[acc] = t[acc] & mask` — strength-reduced `HashMod` for
    /// power-of-two ranges (identical result for unsigned values).
    HashMask { acc: Temp, mask: u64 },
    /// Fused single-input hash to a static slot:
    /// `phv[slot] = splitmix(salt ^ src) & mask` (`salt` is pre-mixed at
    /// lower time, so the whole statement is one dispatch).
    Hash1Mask { slot: u32, salt: u64, src: Opnd, mask: u64 },
    /// `phv[slot] = splitmix(salt ^ src) % range`
    Hash1Mod { slot: u32, salt: u64, src: Opnd, range: u64 },
    /// `phv[slot] = src` (width-masked).
    StoreSlot { slot: u32, src: Opnd },
    /// `phv[base + idx] = src`, bounds-checked.
    StoreSlotDyn { base: u32, count: u32, idx: Opnd, src: Opnd, diag: u16 },
    /// `reg[cell] = src` (element-masked, bounds-checked).
    StoreReg { reg: u16, cell: Opnd, src: Opnd },
    /// Fused sketch increment: `reg[cell] = reg[cell] + add`
    /// (element-masked, one bounds check).
    RegAdd { reg: u16, cell: Opnd, add: Opnd },
    /// Fused register-to-field copy: `phv[slot] = reg[cell]`
    /// (width-masked, one bounds check) — the read-back half of the
    /// sketch idiom (`meta.count[i] = cms[i][idx]`).
    RegToSlot { slot: u32, reg: u16, cell: Opnd },
    /// Jump to `target` when `test` is **false**. Guards and `if`
    /// conditions compile to this.
    JF { test: Test, target: u32 },
    /// Jump to `target` when `test` is **true** — the dual, used by
    /// structural `||` lowering.
    JT { test: Test, target: u32 },
    /// Fused `&&` of two comparisons: jump when **either** is false.
    /// Guards like `flag == 1 && idx == 2` are one dispatch.
    JFAnd { t1: Test, t2: Test, target: u32 },
    /// Fused `||` of two comparisons: jump when **both** are false.
    /// The min-update guard `count < min || min == 0` is one dispatch.
    JFOr { t1: Test, t2: Test, target: u32 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Table dispatch: read `apply_sites[site]`'s key operands, look the
    /// key up, write the entry's action data, run the matched action's
    /// body range.
    Apply { site: u16 },
    /// The whole CMS idiom (`Hash1Mask; RegAdd; RegToSlot` over the same
    /// index slot) in one dispatch:
    /// `phv[idx_slot] = h = splitmix(salt ^ src) & mask;`
    /// `reg[h] += add; phv[dst_slot] = reg[h]`.
    /// Formed by [`peephole`] only where [`slot_ranges`] puts the index
    /// inside the register, so it cannot fault.
    SketchStep { idx_slot: u32, salt: u64, src: Opnd, mask: u64, reg: u16, add: Opnd, dst_slot: u32 },
    /// `Hash1Mask; RegToSlot` over the same index slot in one dispatch:
    /// `phv[idx_slot] = h = splitmix(salt ^ src) & mask; phv[dst_slot] = reg[h]`.
    /// In bounds by the range pass, as `SketchStep` is.
    HashRead { idx_slot: u32, salt: u64, src: Opnd, mask: u64, reg: u16, dst_slot: u32 },
    /// `Hash1Mask; RegAdd` over the same index slot in one dispatch:
    /// `phv[idx_slot] = h = splitmix(salt ^ src) & mask; reg[h] += add`.
    /// In bounds by the range pass, as `SketchStep` is.
    HashAdd { idx_slot: u32, salt: u64, src: Opnd, mask: u64, reg: u16, add: Opnd },
    /// The running-min idiom (`JFOr(Lt, Eq 0)` jumping over its own
    /// `StoreSlot`) in one dispatch:
    /// `if src < phv[slot] || phv[slot] == 0 { phv[slot] = src }`.
    MinOrInit { slot: u32, src: Opnd },
    /// A `JF` that jumps over exactly its own `StoreSlot`, as a select:
    /// `if test { phv[slot] = src }`.
    CondStore { test: Test, slot: u32, src: Opnd },
}

impl Instr {
    /// Where a jump lands when taken; `None` for everything else.
    fn jump_target(&self) -> Option<u32> {
        match self {
            Instr::JF { target, .. }
            | Instr::JT { target, .. }
            | Instr::JFAnd { target, .. }
            | Instr::JFOr { target, .. }
            | Instr::Jmp { target } => Some(*target),
            _ => None,
        }
    }
}

/// A table apply site: which table, and where the key comes from.
#[derive(Debug, Clone, Default)]
pub(crate) struct ApplySite {
    pub table: u16,
    pub key_ops: Vec<Opnd>,
}

/// What a table does on a miss.
#[derive(Debug, Clone, Default)]
pub(crate) enum DefaultAction {
    /// No default: a miss is a no-op.
    #[default]
    None,
    /// Dense id of the default action's body.
    Run(u32),
    /// Declared default never compiled — faults like the interpreter.
    Unknown(String),
}

/// Static per-table data, by dense table id (the entries live in the
/// switch's [`Table`]s, same order).
#[derive(Debug, Clone, Default)]
pub(crate) struct TableMeta {
    pub default_action: DefaultAction,
}

/// A lowered program: one flat code vector plus dense dispatch metadata.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledProgram {
    pub code: Vec<Instr>,
    /// One contiguous code range per stage (empty for a stage that holds
    /// no code). Jumps are forward and never leave their stage, so a
    /// range's length is what a packet that takes no jump, runs no action
    /// body and does not fault costs that stage.
    pub stages: Vec<(u32, u32)>,
    /// The whole pipeline as one contiguous range: the stages back to
    /// back, in order. A packet is a single dispatch loop over this range
    /// — empty preset stages cost nothing.
    pub body: (u32, u32),
    /// Stage of each `pc` in `body`. Action-body positions hold
    /// `u16::MAX`: a body's cost belongs to the stage of the `Apply` that
    /// ran it, which [`exec_range`] keeps while the body runs.
    stage_of: Vec<u16>,
    pub tables: Vec<TableMeta>,
    pub apply_sites: Vec<ApplySite>,
    /// Dense id -> code range, for table-dispatched action bodies.
    pub action_code: Vec<(u32, u32)>,
    pub action_ids: NameMap<Arc<str>, u32>,
    /// Error strings for dynamic-index bounds faults.
    pub diags: Vec<String>,
    /// Size of the temporary file a packet needs.
    pub temp_count: usize,
    /// The first instruction that may fault after one that may write a
    /// register ([`fault_after_write`]). `None`: there is none, so a
    /// faulting packet has written nothing and its writes need no undo
    /// log.
    pub undo_log: Option<u32>,
    /// The install contracts the range pass relied on, by slot.
    pub contracts: Vec<Contract>,
    /// Per PHV slot, the bound every installed action datum for it must
    /// stay below: a contract's `limit`, `u64::MAX` for every other slot.
    pub data_limit: Vec<u64>,
}

/// An install contract: a metadata slot that only action data sets (no
/// instruction writes it) and that indexes a register. The control plane
/// rejects a datum for it at or past `limit`, the smallest length of the
/// registers it indexes, so every value it holds is a valid index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Contract {
    pub slot: u32,
    pub limit: u64,
    /// The metadata field's name, as installs spell it.
    pub field: String,
}

/// Per-executor scratch: the temporary file and the reusable key buffer.
/// Each replay worker owns one, so packet execution allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecCtx {
    pub temps: Vec<u64>,
    pub keys: Vec<u64>,
}

impl ExecCtx {
    pub fn for_program(prog: &CompiledProgram) -> ExecCtx {
        ExecCtx { temps: vec![0; prog.temp_count.max(1)], keys: Vec::new() }
    }
}

// ------------------------------------------------------------- lowering

/// True when evaluating `e` can neither fault nor touch mutable state:
/// skipping or reordering it is unobservable. Division is impure (it can
/// fault), as are dynamic slots and register reads (bounds faults).
fn pure(e: &CExpr) -> bool {
    match e {
        CExpr::Const(_) | CExpr::Slot(_) => true,
        CExpr::Bin { op: BinOp::Div, .. } => false,
        CExpr::Bin { a, b, .. } => pure(a) && pure(b),
        CExpr::Not(a) | CExpr::Neg(a) => pure(a),
        CExpr::DynSlot { .. } | CExpr::RegRead { .. } => false,
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
}

struct Lowerer {
    code: Vec<Instr>,
    diags: Vec<String>,
    diag_ids: NameMap<String, u16>,
    next_temp: usize,
    max_temps: usize,
}

impl Lowerer {
    fn new() -> Lowerer {
        Lowerer {
            code: Vec::new(),
            diags: Vec::new(),
            diag_ids: NameMap::default(),
            next_temp: 0,
            max_temps: 0,
        }
    }

    fn alloc(&mut self) -> Temp {
        let t = self.next_temp;
        self.next_temp += 1;
        self.max_temps = self.max_temps.max(self.next_temp);
        t as Temp
    }

    /// Temps are statement-local: each top-level statement restarts the
    /// file (values never flow between statements except through the PHV
    /// or registers, exactly as in the interpreter).
    fn reset_temps(&mut self) {
        self.next_temp = 0;
    }

    fn diag(&mut self, what: &str) -> u16 {
        if let Some(&id) = self.diag_ids.get(what) {
            return id;
        }
        let id = self.diags.len() as u16;
        self.diags.push(what.to_string());
        self.diag_ids.insert(what.to_string(), id);
        id
    }

    /// Lower `e` to an inline operand: constants and static slots fold
    /// directly; anything else materializes into a temp *here*, so
    /// faultable sub-expressions still run in source order.
    fn operand(&mut self, e: &CExpr) -> Opnd {
        match e {
            CExpr::Const(v) => Opnd::I(*v),
            CExpr::Slot(s) => Opnd::S(*s as u32),
            _ => Opnd::T(self.lower_expr(e)),
        }
    }

    fn lower_expr(&mut self, e: &CExpr) -> Temp {
        match e {
            CExpr::Const(_) | CExpr::Slot(_) => {
                // Pure leaves normally fold via `operand`; when a temp is
                // demanded (e.g. a hash accumulator seed), copy through a
                // no-op `Bin Add 0`.
                let o = self.operand(e);
                let dst = self.alloc();
                self.code.push(Instr::Bin { dst, op: BinOp::Add, a: o, b: Opnd::I(0) });
                dst
            }
            CExpr::DynSlot { base, count, idx, what } => {
                let i = self.operand(idx);
                let diag = self.diag(what);
                let dst = self.alloc();
                self.code.push(Instr::LoadSlotDyn {
                    dst,
                    base: *base as u32,
                    count: *count as u32,
                    idx: i,
                    diag,
                });
                dst
            }
            CExpr::RegRead { reg, cell } => {
                let c = self.operand(cell);
                let dst = self.alloc();
                self.code.push(Instr::LoadReg { dst, reg: *reg as u16, cell: c });
                dst
            }
            CExpr::Bin { op, a, b } => {
                // Both operands always evaluate (no short-circuit), as in
                // the interpreter: error behavior must match exactly.
                // (Folding a *pure* operand inline is unobservable.)
                let ta = self.operand(a);
                let tb = self.operand(b);
                let dst = self.alloc();
                self.code.push(Instr::Bin { dst, op: *op, a: ta, b: tb });
                dst
            }
            CExpr::Not(a) => {
                let ta = self.operand(a);
                let dst = self.alloc();
                self.code.push(Instr::Not { dst, a: ta });
                dst
            }
            CExpr::Neg(a) => {
                let ta = self.operand(a);
                let dst = self.alloc();
                self.code.push(Instr::Neg { dst, a: ta });
                dst
            }
        }
    }

    /// Value is already in `src`; emit the destination store (dynamic
    /// indices evaluate after the value, matching the interpreter — and
    /// reordering a *pure* folded value past the index read is
    /// unobservable, since expression evaluation never writes the PHV).
    fn lower_store(&mut self, dst: &CDst, src: Opnd) {
        match dst {
            CDst::Slot(s) => self.code.push(Instr::StoreSlot { slot: *s as u32, src }),
            CDst::DynSlot { base, count, idx, what } => {
                let i = self.operand(idx);
                let diag = self.diag(what);
                self.code.push(Instr::StoreSlotDyn {
                    base: *base as u32,
                    count: *count as u32,
                    idx: i,
                    src,
                    diag,
                });
            }
            CDst::Reg { reg, cell } => {
                let c = self.operand(cell);
                self.code.push(Instr::StoreReg { reg: *reg as u16, cell: c, src });
            }
        }
    }

    /// Emit branching code for a condition: control **falls through**
    /// when `e` is true; every index pushed to `false_jumps` is an
    /// unpatched jump taken when `e` is false. Comparisons fuse into one
    /// `JF`; pure `&&`/`||` lower structurally (safe: a pure operand
    /// cannot fault and has no effects, so skipping it is unobservable);
    /// everything else materializes a boolean and tests it against zero.
    fn lower_cond_jf(&mut self, e: &CExpr, false_jumps: &mut Vec<usize>) {
        match e {
            CExpr::Bin { op: BinOp::And, a, b } if pure(a) && pure(b) => {
                // Two bare comparisons fuse into one JFAnd dispatch.
                if let Some((t1, t2)) = self.fuse_cmp_pair(a, b) {
                    false_jumps.push(self.code.len());
                    self.code.push(Instr::JFAnd { t1, t2, target: 0 });
                    return;
                }
                self.lower_cond_jf(a, false_jumps);
                self.lower_cond_jf(b, false_jumps);
            }
            CExpr::Bin { op: BinOp::Or, a, b } if pure(a) && pure(b) => {
                if let Some((t1, t2)) = self.fuse_cmp_pair(a, b) {
                    false_jumps.push(self.code.len());
                    self.code.push(Instr::JFOr { t1, t2, target: 0 });
                    return;
                }
                let mut true_jumps = Vec::new();
                self.lower_cond_jt(a, &mut true_jumps);
                self.lower_cond_jf(b, false_jumps);
                let here = self.code.len() as u32;
                for at in true_jumps {
                    self.patch(at, here);
                }
            }
            CExpr::Bin { op, a, b } if is_cmp(*op) => {
                let test = self.test(*op, a, b);
                false_jumps.push(self.code.len());
                self.code.push(Instr::JF { test, target: 0 });
            }
            CExpr::Not(a) => self.lower_cond_jt(a, false_jumps),
            _ => {
                let test = Test::new(BinOp::Ne, self.operand(e), Opnd::I(0));
                false_jumps.push(self.code.len());
                self.code.push(Instr::JF { test, target: 0 });
            }
        }
    }

    /// The dual: control falls through when `e` is **false**; jumps in
    /// `true_jumps` are taken when it is true.
    fn lower_cond_jt(&mut self, e: &CExpr, true_jumps: &mut Vec<usize>) {
        match e {
            CExpr::Bin { op: BinOp::Or, a, b } if pure(a) && pure(b) => {
                self.lower_cond_jt(a, true_jumps);
                self.lower_cond_jt(b, true_jumps);
            }
            CExpr::Bin { op: BinOp::And, a, b } if pure(a) && pure(b) => {
                let mut false_jumps = Vec::new();
                self.lower_cond_jf(a, &mut false_jumps);
                self.lower_cond_jt(b, true_jumps);
                let here = self.code.len() as u32;
                for at in false_jumps {
                    self.patch(at, here);
                }
            }
            CExpr::Bin { op, a, b } if is_cmp(*op) => {
                let test = self.test(*op, a, b);
                true_jumps.push(self.code.len());
                self.code.push(Instr::JT { test, target: 0 });
            }
            CExpr::Not(a) => self.lower_cond_jf(a, true_jumps),
            _ => {
                let test = Test::new(BinOp::Ne, self.operand(e), Opnd::I(0));
                true_jumps.push(self.code.len());
                self.code.push(Instr::JT { test, target: 0 });
            }
        }
    }

    fn lower_stmt(&mut self, s: &CStmt) {
        self.reset_temps();
        match s {
            CStmt::Assign { dst, val } => {
                // The sketch idiom `reg[c] = reg[c] + v` fuses into one
                // RegAdd when the cell is static (slot/const, so reading
                // it once is unobservable) and `v` folds to an operand.
                if let Some(i) = self.fuse_reg_add(dst, val) {
                    self.code.push(i);
                    return;
                }
                // `meta.f = reg[cell]` with a static cell is one copy.
                if let (CDst::Slot(s), CExpr::RegRead { reg, cell }) = (dst, val) {
                    if let Some(c) = static_opnd(cell) {
                        self.code.push(Instr::RegToSlot {
                            slot: *s as u32,
                            reg: *reg as u16,
                            cell: c,
                        });
                        return;
                    }
                }
                let v = self.operand(val);
                self.lower_store(dst, v);
            }
            CStmt::Hash { dst, inputs, range, salt } => {
                // `slot = hash(x, range)` — the count-min index pattern —
                // fuses into a single instruction with a pre-mixed salt.
                if let (CDst::Slot(s), [input]) = (dst, inputs.as_slice()) {
                    let src = self.operand(input);
                    let slot = *s as u32;
                    let salt = splitmix(*salt);
                    self.code.push(if range.is_power_of_two() {
                        Instr::Hash1Mask { slot, salt, src, mask: *range - 1 }
                    } else {
                        Instr::Hash1Mod { slot, salt, src, range: *range }
                    });
                    return;
                }
                let acc = self.alloc();
                self.code.push(Instr::HashInit { dst: acc, val: splitmix(*salt) });
                for i in inputs {
                    let t = self.operand(i);
                    self.code.push(Instr::HashMix { acc, src: t });
                }
                if range.is_power_of_two() {
                    self.code.push(Instr::HashMask { acc, mask: *range - 1 });
                } else {
                    self.code.push(Instr::HashMod { acc, range: *range });
                }
                self.lower_store(dst, Opnd::T(acc));
            }
            CStmt::If { cond, then_body, else_body } => {
                let mut false_jumps = Vec::new();
                self.lower_cond_jf(cond, &mut false_jumps);
                for t in then_body {
                    self.lower_stmt(t);
                }
                if else_body.is_empty() {
                    let end = self.code.len() as u32;
                    for at in false_jumps {
                        self.patch(at, end);
                    }
                } else {
                    let jmp_at = self.code.len();
                    self.code.push(Instr::Jmp { target: 0 });
                    let else_start = self.code.len() as u32;
                    for at in false_jumps {
                        self.patch(at, else_start);
                    }
                    for t in else_body {
                        self.lower_stmt(t);
                    }
                    let end = self.code.len() as u32;
                    self.patch(jmp_at, end);
                }
            }
        }
    }

    /// Lower the operands of the comparison `a <op> b`, in order, into
    /// the test a branch carries.
    fn test(&mut self, op: BinOp, a: &CExpr, b: &CExpr) -> Test {
        let oa = self.operand(a);
        let ob = self.operand(b);
        Test::new(op, oa, ob)
    }

    /// When `a` and `b` are both bare comparisons (callers have already
    /// established they are pure), lower them into the two tests of a
    /// fused double-comparison branch.
    fn fuse_cmp_pair(&mut self, a: &CExpr, b: &CExpr) -> Option<(Test, Test)> {
        let (CExpr::Bin { op: op1, a: a1, b: b1 }, CExpr::Bin { op: op2, a: a2, b: b2 }) = (a, b)
        else {
            return None;
        };
        if !is_cmp(*op1) || !is_cmp(*op2) {
            return None;
        }
        Some((self.test(*op1, a1, b1), self.test(*op2, a2, b2)))
    }

    /// Match `reg[cell] = reg[cell] + v` (either operand order) with a
    /// static cell and an operand-foldable `v`.
    fn fuse_reg_add(&mut self, dst: &CDst, val: &CExpr) -> Option<Instr> {
        let CDst::Reg { reg, cell } = dst else { return None };
        let CExpr::Bin { op: BinOp::Add, a, b } = val else { return None };
        let (read, v) = match (&**a, &**b) {
            (CExpr::RegRead { reg: r2, cell: c2 }, other) if *r2 == *reg => (c2, other),
            (other, CExpr::RegRead { reg: r2, cell: c2 }) if *r2 == *reg => (c2, other),
            _ => return None,
        };
        let cell_op = static_opnd(cell)?;
        if static_opnd(read)? != cell_op {
            return None;
        }
        let add = static_opnd(v)?;
        Some(Instr::RegAdd { reg: *reg as u16, cell: cell_op, add })
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Instr::JF { target, .. }
            | Instr::JT { target, .. }
            | Instr::JFAnd { target, .. }
            | Instr::JFOr { target, .. }
            | Instr::Jmp { target } => *target = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn lower_block(&mut self, body: &[CStmt]) -> (u32, u32) {
        let start = self.code.len() as u32;
        for s in body {
            self.lower_stmt(s);
        }
        (start, self.code.len() as u32)
    }
}

/// `Opnd` for an expression that is trivially pure — a constant or a
/// static slot. Used by fusions that read a value twice or out of source
/// order, where anything faultable must be rejected.
fn static_opnd(e: &CExpr) -> Option<Opnd> {
    match e {
        CExpr::Const(v) => Some(Opnd::I(*v)),
        CExpr::Slot(s) => Some(Opnd::S(*s as u32)),
        _ => None,
    }
}

/// Lower the switch's interpreter structures into bytecode. Infallible:
/// everything it consumes was validated by [`Switch::build`].
pub(crate) fn lower(sw: &Switch) -> CompiledProgram {
    let mut lo = Lowerer::new();

    // Dense action ids for table-dispatched bodies (sorted for a
    // deterministic numbering).
    let mut action_names: Vec<&Arc<str>> = sw.table_actions.keys().collect();
    action_names.sort();
    let mut action_ids = NameMap::default();
    let mut action_code = Vec::with_capacity(action_names.len());
    for (id, &name) in action_names.iter().enumerate() {
        action_ids.insert(Arc::clone(name), id as u32);
        action_code.push(lo.lower_block(&sw.table_actions[name]));
    }

    let mut tables = Vec::with_capacity(sw.tables.len());
    for ts in &sw.tables {
        let default_action = match &ts.default_action {
            None => DefaultAction::None,
            Some(a) => match action_ids.get(a.as_str()) {
                Some(&id) => DefaultAction::Run(id),
                None => DefaultAction::Unknown(a.clone()),
            },
        };
        tables.push(TableMeta { default_action });
    }

    // Stage programs: each stage is one contiguous range. A guard lowers
    // to fused conditional jumps over the rest of its action; a table
    // apply lowers to one `Apply` over inline key operands.
    let mut apply_sites = Vec::new();
    let mut stages = Vec::with_capacity(sw.stages.len());
    let body_start = lo.code.len() as u32;
    for stage in &sw.stages {
        let start = lo.code.len() as u32;
        for a in stage {
            let guard_jumps = a.guard.as_ref().map(|g| {
                lo.reset_temps();
                let mut jumps = Vec::new();
                lo.lower_cond_jf(g, &mut jumps);
                jumps
            });
            if let Some((tname, keys)) = &a.table {
                lo.reset_temps();
                let key_ops: Vec<Opnd> = keys.iter().map(|k| lo.operand(k)).collect();
                let site = apply_sites.len() as u16;
                apply_sites.push(ApplySite { table: sw.table_ids[tname], key_ops });
                lo.code.push(Instr::Apply { site });
            }
            lo.lower_block(&a.body);
            if let Some(jumps) = guard_jumps {
                let end = lo.code.len() as u32;
                for at in jumps {
                    lo.patch(at, end);
                }
            }
        }
        stages.push((start, lo.code.len() as u32));
    }

    let body = (body_start, lo.code.len() as u32);
    let mut prog = CompiledProgram {
        code: lo.code,
        stages,
        body,
        tables,
        apply_sites,
        action_code,
        action_ids,
        diags: lo.diags,
        temp_count: lo.max_temps,
        stage_of: Vec::new(),
        undo_log: None,
        contracts: Vec::new(),
        data_limit: Vec::new(),
    };
    // Action data may set any scalar metadata field.
    let mut settable = vec![false; sw.masks.len()];
    let mut fields: Vec<(usize, &str)> = Vec::new();
    for (name, &slot) in &sw.meta_scalars {
        settable[slot] = true;
        fields.push((slot, &**name));
    }
    fields.sort();
    prog.contracts = install_contracts(&prog.code, &fields, &sw.masks, &sw.registers);
    prog.data_limit = vec![u64::MAX; sw.masks.len()];
    for c in &prog.contracts {
        prog.data_limit[c.slot as usize] = c.limit;
    }
    let ranges = slot_ranges(&prog, &sw.masks, &settable);
    peephole(&mut prog, &ranges, &sw.registers);
    // Cost attribution is static: fixed once the code has its final shape.
    prog.stage_of = vec![u16::MAX; prog.code.len()];
    for (s, &(a, b)) in prog.stages.iter().enumerate() {
        prog.stage_of[a as usize..b as usize].fill(s as u16);
    }
    validate(&prog, sw.masks.len(), sw.registers.len());
    let ranges = slot_ranges(&prog, &sw.masks, &settable);
    prog.undo_log = fault_after_write(&prog, &ranges, &sw.registers).err();
    prog
}

/// The slots an instruction writes, each as a range of slots (a dynamic
/// store may write any slot of its window).
fn slot_writes(i: &Instr) -> [std::ops::Range<u32>; 2] {
    let one = |s: u32| s..s + 1;
    match *i {
        Instr::Hash1Mask { slot, .. }
        | Instr::Hash1Mod { slot, .. }
        | Instr::StoreSlot { slot, .. }
        | Instr::RegToSlot { slot, .. }
        | Instr::MinOrInit { slot, .. }
        | Instr::CondStore { slot, .. }
        | Instr::HashAdd { idx_slot: slot, .. } => [one(slot), 0..0],
        Instr::StoreSlotDyn { base, count, .. } => [base..base + count, 0..0],
        Instr::SketchStep { idx_slot, dst_slot, .. }
        | Instr::HashRead { idx_slot, dst_slot, .. } => [one(idx_slot), one(dst_slot)],
        _ => [0..0, 0..0],
    }
}

/// The install contracts of a lowered program: every scalar metadata
/// field (`fields`, by slot) that no instruction writes and that indexes
/// a register. Its limit is the smallest length of those registers; a
/// field indexing a register without cells gets no contract (no datum
/// could meet it).
fn install_contracts(
    code: &[Instr],
    fields: &[(usize, &str)],
    masks: &[u64],
    regs: &[RegState],
) -> Vec<Contract> {
    let mut written = vec![false; masks.len()];
    let mut limit = vec![u64::MAX; masks.len()];
    for i in code {
        for r in slot_writes(i) {
            written[r.start as usize..r.end as usize].fill(true);
        }
        if let Instr::LoadReg { reg, cell: Opnd::S(s), .. }
        | Instr::StoreReg { reg, cell: Opnd::S(s), .. }
        | Instr::RegAdd { reg, cell: Opnd::S(s), .. }
        | Instr::RegToSlot { reg, cell: Opnd::S(s), .. } = *i
        {
            let cells = regs[reg as usize].cells.len() as u64;
            limit[s as usize] = limit[s as usize].min(cells);
        }
    }
    fields
        .iter()
        .filter(|&&(s, _)| !written[s] && limit[s] > 0 && limit[s] < u64::MAX)
        .map(|&(s, name)| Contract { slot: s as u32, limit: limit[s], field: name.to_string() })
        .collect()
}

/// What the range pass knows: for every `pc`, an upper bound on each
/// slot's value when the instruction there starts, on every path that
/// reaches it. A pc no path reaches has no bounds.
struct SlotRanges {
    at: Vec<Option<Vec<u64>>>,
}

impl SlotRanges {
    /// The largest value `o` can have at `pc` (temps are not tracked).
    fn max(&self, pc: usize, o: &Opnd) -> u64 {
        match (*o, &self.at[pc]) {
            (Opnd::I(k), _) => k,
            (Opnd::S(s), Some(max)) => max[s as usize],
            _ => u64::MAX,
        }
    }

    /// `o` is below `len` whenever the instruction at `pc` runs: an index
    /// `o` into `len` cells needs no bounds check there.
    fn below(&self, pc: usize, o: &Opnd, len: u64) -> bool {
        self.max(pc, o) < len
    }
}

/// The slot-range pass: one forward walk over the loop-free program that
/// bounds every slot at every pc ([`SlotRanges`]). Its facts:
///
/// - a packet enters with a contract slot below its limit (it holds 0 or
///   installed data) and every other slot unbounded (a trace row may hold
///   anything outside the contracts);
/// - a store leaves a value no wider than its slot's mask, and no larger
///   than its source: an immediate, a bounded slot, or a hash's mask
///   (`Hash1Mask`: `mask & slot-mask`) or range;
/// - a select (`MinOrInit`, `CondStore`) or a dynamic store may leave its
///   slot as it was, so the bound is the larger of old and new;
/// - an `Apply` may install action data (`settable` slots, a contract
///   slot only below its limit) and then run any action body, whose
///   bounds the walk takes from the state at the `Apply`;
/// - where paths join (a jump target), the bound is the larger one.
///
/// Jumps only go forward within their range, so one walk in code order
/// sees every edge into a pc before the pc itself.
fn slot_ranges(prog: &CompiledProgram, masks: &[u64], settable: &[bool]) -> SlotRanges {
    let entry = prog.data_limit.iter().map(|&l| below_limit(l)).collect();
    let mut at = vec![None; prog.code.len()];
    walk(prog, prog.body, entry, masks, settable, &mut at);
    SlotRanges { at }
}

/// The largest value below an install limit (`u64::MAX`: no limit).
fn below_limit(limit: u64) -> u64 {
    if limit == u64::MAX {
        limit
    } else {
        limit - 1
    }
}

/// `into[s] = max(into[s], from[s])`.
fn join(into: &mut Option<Vec<u64>>, from: &[u64]) {
    match into {
        Some(v) => v.iter_mut().zip(from).for_each(|(a, &b)| *a = (*a).max(b)),
        None => *into = Some(from.to_vec()),
    }
}

/// Walk `range` from `entry`, joining each pc's bounds into `at`; returns
/// the bounds at the range's end.
fn walk(
    prog: &CompiledProgram,
    (a, b): (u32, u32),
    entry: Vec<u64>,
    masks: &[u64],
    settable: &[bool],
    at: &mut [Option<Vec<u64>>],
) -> Vec<u64> {
    let (a, b) = (a as usize, b as usize);
    let mut into: Vec<Option<Vec<u64>>> = vec![None; b - a + 1];
    into[0] = Some(entry);
    for pc in a..b {
        // A pc no edge reaches holds nothing to carry forward.
        let Some(mut st) = into[pc - a].take() else { continue };
        join(&mut at[pc], &st);
        let instr = &prog.code[pc];
        let val = |st: &[u64], o: &Opnd| match *o {
            Opnd::I(k) => k,
            Opnd::S(s) => st[s as usize],
            Opnd::T(_) => u64::MAX,
        };
        // A width-masked store of a value at most `x`: `x & m <= min(x, m)`.
        let put = |st: &mut [u64], s: u32, x: u64| st[s as usize] = x.min(masks[s as usize]);
        let keep_or = |st: &mut [u64], s: u32, x: u64| {
            st[s as usize] = st[s as usize].max(x.min(masks[s as usize]));
        };
        match *instr {
            Instr::Hash1Mask { slot, mask, .. } | Instr::HashAdd { idx_slot: slot, mask, .. } => {
                st[slot as usize] = mask & masks[slot as usize];
            }
            Instr::Hash1Mod { slot, range, .. } => put(&mut st, slot, range - 1),
            Instr::StoreSlot { slot, src } => {
                let x = val(&st, &src);
                put(&mut st, slot, x);
            }
            Instr::RegToSlot { slot, .. } => put(&mut st, slot, u64::MAX),
            Instr::SketchStep { idx_slot, mask, dst_slot, .. }
            | Instr::HashRead { idx_slot, mask, dst_slot, .. } => {
                st[idx_slot as usize] = mask & masks[idx_slot as usize];
                put(&mut st, dst_slot, u64::MAX);
            }
            Instr::MinOrInit { slot, src } | Instr::CondStore { slot, src, .. } => {
                let x = val(&st, &src);
                keep_or(&mut st, slot, x);
            }
            Instr::StoreSlotDyn { base, count, src, .. } => {
                let x = val(&st, &src);
                (base..base + count).for_each(|s| keep_or(&mut st, s, x));
            }
            Instr::Apply { .. } => {
                let mut hit = st.clone();
                for (s, _) in settable.iter().enumerate().filter(|(_, &d)| d) {
                    hit[s] = hit[s].max(masks[s].min(below_limit(prog.data_limit[s])));
                }
                let mut out = Some(hit.clone());
                for &body in &prog.action_code {
                    join(&mut out, &walk(prog, body, hit.clone(), masks, settable, at));
                }
                st = out.expect("set above");
            }
            _ => {}
        }
        if let Some(t) = instr.jump_target() {
            join(&mut into[t as usize - a], &st);
        }
        if !matches!(instr, Instr::Jmp { .. }) {
            join(&mut into[pc + 1 - a], &st);
        }
    }
    into[b - a].take().expect("a forward range always reaches its end")
}

/// The hash-to-register pair at `code[pc..pc + 2]`: a `Hash1Mask` into
/// an index slot, then a register access through that slot that the range
/// pass proves in bounds. Returns the hash's fields and the access.
fn hash_pair<'c>(
    code: &'c [Instr],
    pc: usize,
    ranges: &SlotRanges,
    regs: &[RegState],
) -> Option<(u32, u64, Opnd, u64, &'c Instr)> {
    let Instr::Hash1Mask { slot, salt, src, mask } = *code.get(pc)? else {
        return None;
    };
    let next = code.get(pc + 1)?;
    let (Instr::RegAdd { reg, cell, .. } | Instr::RegToSlot { reg, cell, .. }) = *next else {
        return None;
    };
    let len = regs[reg as usize].cells.len() as u64;
    (cell == Opnd::S(slot) && ranges.below(pc + 1, &cell, len))
        .then_some((slot, salt, src, mask, next))
}

/// Try to fuse the CMS idiom at `code[pc..pc + 3]`: hash into an index
/// slot, bump the register cell it names, read the new count back into a
/// field.
fn fuse_sketch(code: &[Instr], pc: usize, ranges: &SlotRanges, regs: &[RegState]) -> Option<Instr> {
    let (idx_slot, salt, src, mask, &Instr::RegAdd { reg, add, .. }) =
        hash_pair(code, pc, ranges, regs)?
    else {
        return None;
    };
    let Instr::RegToSlot { slot: dst_slot, reg: r2, cell } = *code.get(pc + 2)? else {
        return None;
    };
    let step = Instr::SketchStep { idx_slot, salt, src, mask, reg, add, dst_slot };
    (cell == Opnd::S(idx_slot) && r2 == reg).then_some(step)
}

/// Try to fuse a hash-to-register pair at `code[pc..pc + 2]` into
/// [`Instr::HashRead`] or [`Instr::HashAdd`].
fn fuse_hash(code: &[Instr], pc: usize, ranges: &SlotRanges, regs: &[RegState]) -> Option<Instr> {
    let (idx_slot, salt, src, mask, access) = hash_pair(code, pc, ranges, regs)?;
    Some(match *access {
        Instr::RegAdd { reg, add, .. } => Instr::HashAdd { idx_slot, salt, src, mask, reg, add },
        Instr::RegToSlot { slot, reg, .. } => {
            Instr::HashRead { idx_slot, salt, src, mask, reg, dst_slot: slot }
        }
        _ => unreachable!("hash_pair returns a register access"),
    })
}

/// Try to fuse a `JF` that jumps over exactly its own `StoreSlot` at
/// `code[pc..pc + 2]` into [`Instr::CondStore`].
fn fuse_cond_store(code: &[Instr], pc: usize) -> Option<Instr> {
    let Instr::JF { test, target } = code.get(pc)? else {
        return None;
    };
    let Instr::StoreSlot { slot, src } = *code.get(pc + 1)? else {
        return None;
    };
    (*target as usize == pc + 2).then(|| Instr::CondStore { test: test.clone(), slot, src })
}

/// Try to fuse the running-min idiom at `code[pc..pc + 2]`: a `JFOr`
/// guard `src < phv[m] || phv[m] == 0` that jumps over exactly its own
/// `phv[m] = src` store.
fn fuse_min(code: &[Instr], pc: usize) -> Option<Instr> {
    let Instr::JFOr { t1, t2, target } = code.get(pc)? else {
        return None;
    };
    let Instr::StoreSlot { slot, src } = *code.get(pc + 1)? else {
        return None;
    };
    let m = Opnd::S(slot);
    if *t1 != Test::new(BinOp::Lt, src, m)
        || *t2 != Test::new(BinOp::Eq, m, Opnd::I(0))
        || *target as usize != pc + 2
    {
        return None;
    }
    Some(Instr::MinOrInit { slot, src })
}

/// Post-lowering peephole over the final code: fuse the CMS idiom into
/// [`Instr::SketchStep`], hash-to-register pairs into [`Instr::HashRead`]
/// and [`Instr::HashAdd`], and the two store-over-a-jump idioms into the
/// selects [`Instr::MinOrInit`] and [`Instr::CondStore`]. `ranges` is the
/// range pass over the code as lowered; a register access fuses only
/// where it proves the index in bounds. A fusion never swallows a jump
/// target or a stage/action/body boundary, and every surviving jump target
/// and range endpoint is remapped onto the compacted code.
fn peephole(prog: &mut CompiledProgram, ranges: &SlotRanges, regs: &[RegState]) {
    let len = prog.code.len();
    // Positions that must survive as instruction starts: jump targets and
    // every range endpoint the program indexes by.
    let mut barrier = vec![false; len + 1];
    for target in prog.code.iter().filter_map(Instr::jump_target) {
        barrier[target as usize] = true;
    }
    for &(a, b) in prog.stages.iter().chain(prog.action_code.iter()) {
        barrier[a as usize] = true;
        barrier[b as usize] = true;
    }
    barrier[prog.body.0 as usize] = true;
    barrier[prog.body.1 as usize] = true;

    let old = std::mem::take(&mut prog.code);
    let mut map = vec![0u32; len + 1];
    let mut out: Vec<Instr> = Vec::with_capacity(len);
    let mut pc = 0usize;
    while pc < len {
        let mut fused = None;
        if !barrier[pc + 1] {
            if pc + 2 < len && !barrier[pc + 2] {
                fused = fuse_sketch(&old, pc, ranges, regs).map(|i| (i, 3));
            }
            fused = fused.or_else(|| {
                let two = fuse_hash(&old, pc, ranges, regs)
                    .or_else(|| fuse_min(&old, pc))
                    .or_else(|| fuse_cond_store(&old, pc));
                two.map(|i| (i, 2))
            });
        }
        let (instr, width) = fused.unwrap_or_else(|| (old[pc].clone(), 1));
        // Interior positions of a fusion are unreachable (no barrier), but
        // keep the map total.
        map[pc..pc + width].fill(out.len() as u32);
        out.push(instr);
        pc += width;
    }
    map[len] = out.len() as u32;

    for i in &mut out {
        match i {
            Instr::JF { target, .. }
            | Instr::JT { target, .. }
            | Instr::JFAnd { target, .. }
            | Instr::JFOr { target, .. }
            | Instr::Jmp { target } => *target = map[*target as usize],
            _ => {}
        }
    }
    prog.code = out;
    for (a, b) in prog.stages.iter_mut().chain(prog.action_code.iter_mut()) {
        *a = map[*a as usize];
        *b = map[*b as usize];
    }
    prog.body = (map[prog.body.0 as usize], map[prog.body.1 as usize]);
}

/// Build-time validation underwriting the execution loop's unchecked
/// accesses: every static slot reference is within the PHV, every dynamic
/// slot window fits, every register id resolves, every branch tests a
/// comparison, every jump is forward and lands within its own stage or
/// action range, and every action body lies within the code and holds no
/// `Apply` (so it runs inline, one level deep). It also checks the static
/// half of cost attribution: the stages tile `body` in order and
/// `stage_of` names the stage of every body position.
///
/// A violation is a lowering bug. Panicking here, once at build, is what
/// lets [`exec_range`] skip those checks on every packet and refund a
/// taken jump as plain `target - pc - 1`.
fn validate(prog: &CompiledProgram, phv_len: usize, reg_count: usize) {
    let slot = |s: u32| assert!((s as usize) < phv_len, "slot {s} out of PHV ({phv_len})");
    let opnd = |o: &Opnd| {
        if let Opnd::S(s) = o {
            slot(*s);
        }
    };
    let dynw = |base: u32, count: u32| {
        assert!(base as usize + count as usize <= phv_len, "dyn window out of PHV");
    };
    let reg = |r: u16| assert!((r as usize) < reg_count, "register {r} unresolved");
    let guard = |t: &Test| match t {
        Test::Slot { slot: s, .. } => slot(*s),
        Test::Opnds(c) => {
            assert!(is_cmp(c.0), "non-comparison {:?} in a branch", c.0);
            opnd(&c.1);
            opnd(&c.2);
        }
    };
    for i in &prog.code {
        match i {
            Instr::LoadSlotDyn { base, count, idx, diag, .. } => {
                dynw(*base, *count);
                opnd(idx);
                assert!((*diag as usize) < prog.diags.len());
            }
            Instr::LoadReg { reg: r, cell, .. } => {
                reg(*r);
                opnd(cell);
            }
            Instr::Bin { a, b, .. } => {
                opnd(a);
                opnd(b);
            }
            Instr::Not { a, .. } | Instr::Neg { a, .. } => opnd(a),
            Instr::HashInit { .. } | Instr::HashMod { .. } | Instr::HashMask { .. } => {}
            Instr::HashMix { src, .. } => opnd(src),
            Instr::Hash1Mask { slot: s, src, .. } | Instr::Hash1Mod { slot: s, src, .. } => {
                slot(*s);
                opnd(src);
            }
            Instr::StoreSlot { slot: s, src } => {
                slot(*s);
                opnd(src);
            }
            Instr::StoreSlotDyn { base, count, idx, src, diag } => {
                dynw(*base, *count);
                opnd(idx);
                opnd(src);
                assert!((*diag as usize) < prog.diags.len());
            }
            Instr::StoreReg { reg: r, cell, src } => {
                reg(*r);
                opnd(cell);
                opnd(src);
            }
            Instr::RegAdd { reg: r, cell, add } => {
                reg(*r);
                opnd(cell);
                opnd(add);
            }
            Instr::RegToSlot { slot: s, reg: r, cell } => {
                slot(*s);
                reg(*r);
                opnd(cell);
            }
            Instr::JF { test, .. } | Instr::JT { test, .. } => guard(test),
            Instr::JFAnd { t1, t2, .. } | Instr::JFOr { t1, t2, .. } => {
                guard(t1);
                guard(t2);
            }
            Instr::Jmp { .. } => {}
            Instr::Apply { site } => {
                let s = &prog.apply_sites[*site as usize];
                assert!((s.table as usize) < prog.tables.len());
                s.key_ops.iter().for_each(&opnd);
            }
            Instr::SketchStep { idx_slot, src, reg: r, add, dst_slot, .. } => {
                slot(*idx_slot);
                slot(*dst_slot);
                opnd(src);
                opnd(add);
                reg(*r);
            }
            Instr::HashRead { idx_slot, src, reg: r, dst_slot, .. } => {
                slot(*idx_slot);
                slot(*dst_slot);
                opnd(src);
                reg(*r);
            }
            Instr::HashAdd { idx_slot, src, reg: r, add, .. } => {
                slot(*idx_slot);
                opnd(src);
                opnd(add);
                reg(*r);
            }
            Instr::MinOrInit { slot: s, src } => {
                slot(*s);
                opnd(src);
            }
            Instr::CondStore { test, slot: s, src } => {
                guard(test);
                slot(*s);
                opnd(src);
            }
        }
    }

    assert_eq!(prog.stage_of.len(), prog.code.len(), "one stage entry per instruction");
    let mut at = prog.body.0;
    for (s, &(a, b)) in prog.stages.iter().enumerate() {
        assert!(a == at && a <= b, "stage {s} [{a}..{b}] does not continue body at {at}");
        at = b;
        let of = &prog.stage_of[a as usize..b as usize];
        assert!(of.iter().all(|&x| x as usize == s), "stage_of disagrees in stage {s}");
    }
    assert_eq!(at, prog.body.1, "stages end where body ends");
    for &(a, b) in &prog.action_code {
        assert!(a <= b && b as usize <= prog.code.len(), "action body [{a}..{b}] outside code");
        let apply = (a..b).find(|&pc| matches!(prog.code[pc as usize], Instr::Apply { .. }));
        assert!(apply.is_none(), "Apply at {apply:?} inside action body [{a}..{b}]");
    }
    for &(a, b) in prog.stages.iter().chain(&prog.action_code) {
        for pc in a..b {
            if let Some(t) = prog.code[pc as usize].jump_target() {
                assert!(pc < t && t <= b, "jump at {pc} to {t} leaves [{a}..{b}]");
            }
        }
    }
}

/// The fault-after-write scan behind [`CompiledProgram::undo_log`]:
/// `Err(pc)` names the first instruction in code order that may fault
/// after an instruction that may write a register, `Ok` says there is
/// none. Jumps only go forward ([`validate`]), so code order covers every
/// path a packet can take.
///
/// Whether an index may fault is the range pass's answer at that pc. An
/// `Apply` may run any action body, because an install may name any
/// table action. So it may fault when its table's default is unknown or
/// when any body may fault, and it may write when any body does. A body
/// that may fault after one of its own writes fails the scan by itself.
fn fault_after_write(
    prog: &CompiledProgram,
    ranges: &SlotRanges,
    regs: &[RegState],
) -> Result<(), u32> {
    // (may fault, may write a register). `StoreReg` and `RegAdd` check
    // bounds before their own write; the fused register accesses are in
    // bounds by the range pass.
    let own = |pc: usize| {
        let index = |cell: &Opnd, len: u64| !ranges.below(pc, cell, len);
        let cells = |r: u16| regs[r as usize].cells.len() as u64;
        match &prog.code[pc] {
            Instr::LoadSlotDyn { count, idx, .. } | Instr::StoreSlotDyn { count, idx, .. } => {
                (index(idx, u64::from(*count)), false)
            }
            Instr::LoadReg { reg, cell, .. } | Instr::RegToSlot { reg, cell, .. } => {
                (index(cell, cells(*reg)), false)
            }
            Instr::StoreReg { reg, cell, .. } | Instr::RegAdd { reg, cell, .. } => {
                (index(cell, cells(*reg)), true)
            }
            Instr::Bin { op: BinOp::Div, .. } => (true, false),
            Instr::SketchStep { .. } | Instr::HashAdd { .. } => (false, true),
            _ => (false, false),
        }
    };
    let scan = |(a, b): (u32, u32), of: &dyn Fn(usize) -> (bool, bool)| {
        let (mut faults, mut writes) = (false, false);
        for pc in a..b {
            let (f, w) = of(pc as usize);
            if f && writes {
                return Err(pc);
            }
            faults |= f;
            writes |= w;
        }
        Ok((faults, writes))
    };
    let (mut body_faults, mut body_writes) = (false, false);
    for &range in &prog.action_code {
        let (f, w) = scan(range, &own)?;
        body_faults |= f;
        body_writes |= w;
    }
    let with_apply = |pc: usize| match prog.code[pc] {
        Instr::Apply { site } => {
            let table = prog.apply_sites[site as usize].table as usize;
            let unknown = matches!(prog.tables[table].default_action, DefaultAction::Unknown(_));
            (body_faults || unknown, body_writes)
        }
        _ => own(pc),
    };
    scan(prog.body, &with_apply).map(drop)
}

// ------------------------------------------------------------ execution

/// Uniform access to one packet's PHV slots and temporary file, so the
/// same dispatch loop ([`exec_range`]) serves both the scalar engine
/// (one contiguous `Phv` + temp slice) and one **lane** of a
/// structure-of-arrays batch (stride-`n` columns of the batch buffers).
/// Monomorphized: both impls compile down to direct indexing with no
/// per-access dispatch.
pub(crate) trait PhvView {
    fn get(&self, slot: usize) -> u64;
    /// `phv[slot] = f(phv[slot], mask[slot])`, stored **raw**: `f` does
    /// the masking it wants. Returns what was stored.
    fn update(&mut self, slot: usize, f: impl FnOnce(u64, u64) -> u64) -> u64;
    /// Width-masked store; returns the masked value.
    #[inline(always)]
    fn set(&mut self, slot: usize, v: u64) -> u64 {
        self.update(slot, |_, m| v & m)
    }
    fn temp(&self, t: Temp) -> u64;
    fn set_temp(&mut self, t: Temp, v: u64);
}

/// The scalar (one packet, contiguous buffers) view.
pub(crate) struct ScalarView<'a> {
    pub phv: &'a mut Phv,
    pub temps: &'a mut [u64],
}

impl PhvView for ScalarView<'_> {
    // SAFETY (all four): every static slot index in a program was checked
    // against the PHV length by [`validate`] at build time, `slots` and
    // `masks` have equal length (asserted in [`run_packet`] and
    // [`run_trace`]; a trace row is copied in only at that length), and every
    // `Temp` the lowerer emits is below `temp_count` ([`Lowerer::alloc`]
    // is the only source and tracks the high-water mark) while the
    // scratch is at least that large — so the bounds checks are provably
    // dead and elided.
    #[inline(always)]
    fn get(&self, slot: usize) -> u64 {
        unsafe { *self.phv.slots.get_unchecked(slot) }
    }

    #[inline(always)]
    fn update(&mut self, slot: usize, f: impl FnOnce(u64, u64) -> u64) -> u64 {
        unsafe {
            let m = *self.phv.masks.get_unchecked(slot);
            let p = self.phv.slots.get_unchecked_mut(slot);
            let v = f(*p, m);
            *p = v;
            v
        }
    }

    #[inline(always)]
    fn temp(&self, t: Temp) -> u64 {
        unsafe { *self.temps.get_unchecked(t as usize) }
    }

    #[inline(always)]
    fn set_temp(&mut self, t: Temp, v: u64) {
        unsafe { *self.temps.get_unchecked_mut(t as usize) = v }
    }
}

/// One lane of a column-major SoA batch: slot `s` of lane `l` lives at
/// `slots[s * n + l]`, temp `t` at `temps[t * n + l]`.
pub(crate) struct LaneView<'a> {
    pub slots: &'a mut [u64],
    pub masks: &'a [u64],
    pub temps: &'a mut [u64],
    pub n: usize,
    pub lane: usize,
}

impl PhvView for LaneView<'_> {
    // SAFETY (all four): `slot < phv_len` and `t < temp_count` hold by
    // [`validate`] / [`Lowerer::alloc`] as for [`ScalarView`]; `lane < n`
    // and the buffers are at least `phv_len * n` / `temp_count * n` long
    // (asserted in [`run_batch`]), so `slot * n + lane < phv_len * n`.
    #[inline(always)]
    fn get(&self, slot: usize) -> u64 {
        unsafe { *self.slots.get_unchecked(slot * self.n + self.lane) }
    }

    #[inline(always)]
    fn update(&mut self, slot: usize, f: impl FnOnce(u64, u64) -> u64) -> u64 {
        unsafe {
            let m = *self.masks.get_unchecked(slot);
            let p = self.slots.get_unchecked_mut(slot * self.n + self.lane);
            let v = f(*p, m);
            *p = v;
            v
        }
    }

    #[inline(always)]
    fn temp(&self, t: Temp) -> u64 {
        unsafe { *self.temps.get_unchecked(t as usize * self.n + self.lane) }
    }

    #[inline(always)]
    fn set_temp(&mut self, t: Temp, v: u64) {
        unsafe { *self.temps.get_unchecked_mut(t as usize * self.n + self.lane) = v }
    }
}

/// Resolve an inline operand against a view.
#[inline(always)]
fn ov<V: PhvView>(view: &V, o: &Opnd) -> u64 {
    match *o {
        Opnd::T(t) => view.temp(t),
        Opnd::S(s) => view.get(s as usize),
        Opnd::I(v) => v,
    }
}

/// Evaluate a branch's test against a view. A slot test is one load, a
/// subtract and a compare; only the generic form decodes anything.
#[inline(always)]
fn test<V: PhvView>(view: &V, t: &Test) -> bool {
    match t {
        Test::Slot { slot, neg, lo, span } => {
            (view.get(*slot as usize).wrapping_sub(*lo) <= *span) != *neg
        }
        Test::Opnds(c) => {
            let (x, y) = (ov(view, &c.1), ov(view, &c.2));
            match c.0 {
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                other => unreachable!("non-comparison {other:?} in a branch"),
            }
        }
    }
}

/// Charge `packets` packets the full length of every stage, up front.
/// [`exec_range`] then gives back what a packet did not dispatch, so the
/// counters are exact again when the last of them ends and never dip
/// below their value before the charge.
fn charge_stage_lengths(prog: &CompiledProgram, stage_cost: &mut [u64], packets: u64) {
    assert!(stage_cost.len() >= prog.stages.len(), "one cost counter per stage");
    for (c, &(a, b)) in stage_cost.iter_mut().zip(&prog.stages) {
        *c += u64::from(b - a) * packets;
    }
}

/// The cold half of cost attribution: the instruction at `pc` faulted, so
/// nothing after it runs. Give back the rest of its range — inside an
/// action body (`caller` is the `Apply` and its stage), the rest of the
/// body and then what follows the `Apply` — and every later stage whole,
/// leaving the packet charged exactly the instructions dispatched up to
/// and including `pc`.
#[cold]
fn refund_unreached(
    prog: &CompiledProgram,
    stage_cost: &mut [u64],
    caller: Option<(usize, usize)>,
    pc: usize,
    end: usize,
) {
    let pc = match caller {
        Some((apply, s)) => {
            stage_cost[s] -= (end - pc - 1) as u64;
            apply
        }
        None => pc,
    };
    let s = prog.stage_of[pc] as usize;
    stage_cost[s] -= (prog.stages[s].1 as usize - pc - 1) as u64;
    for (c, &(a, b)) in stage_cost[s + 1..].iter_mut().zip(&prog.stages[s + 1..]) {
        *c -= u64::from(b - a);
    }
}

/// Run one packet (already in `phv`) through every stage, **in place**.
/// Faults abort mid-stage exactly like the interpreter; the caller rolls
/// back `undo` (the PHV content after a fault is unspecified).
/// `stage_cost[s]` grows by the instructions the packet dispatched in
/// stage `s`, action bodies included — also when it faults.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_packet(
    prog: &CompiledProgram,
    ctables: &[Table],
    regs: &mut [RegState],
    phv: &mut Phv,
    ctx: &mut ExecCtx,
    undo: &mut Vec<RegUndo>,
    stage_cost: &mut [u64],
) -> Result<(), SimError> {
    assert!(ctx.temps.len() >= prog.temp_count, "scratch must come from ExecCtx::for_program");
    assert!(phv.slots.len() == phv.masks.len(), "PHV built by Switch::build");
    charge_stage_lengths(prog, stage_cost, 1);
    let ExecCtx { temps, keys } = ctx;
    let mut view = ScalarView { phv, temps };
    exec_body(prog, ctables, regs, &mut view, keys, undo, stage_cost)
}

/// Replay `rows` — one input slot vector per packet, in trace order —
/// through `phv`, in place: [`run_packet`] for a whole trace, with what is
/// the same for every packet paid once. The scratch and PHV preconditions
/// are checked and every stage's length charged for all packets up front,
/// so `stage_cost` is exact again when the trace ends (not between its
/// packets). A faulting packet's register writes are rolled back and it
/// counts as a drop; `phv` ends holding the last packet's PHV. Returns
/// the number of drops.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_trace<'r>(
    prog: &CompiledProgram,
    ctables: &[Table],
    regs: &mut [RegState],
    phv: &mut Phv,
    ctx: &mut ExecCtx,
    undo: &mut Vec<RegUndo>,
    stage_cost: &mut [u64],
    rows: impl ExactSizeIterator<Item = &'r [u64]>,
) -> u64 {
    assert!(ctx.temps.len() >= prog.temp_count, "scratch must come from ExecCtx::for_program");
    assert!(phv.slots.len() == phv.masks.len(), "PHV built by Switch::build");
    charge_stage_lengths(prog, stage_cost, rows.len() as u64);
    let ExecCtx { temps, keys } = ctx;
    let mut dropped = 0;
    for slots in rows {
        phv.slots.copy_from_slice(slots);
        undo.clear();
        let mut view = ScalarView { phv, temps };
        if exec_body(prog, ctables, regs, &mut view, keys, undo, stage_cost).is_err() {
            rollback(regs, undo);
            dropped += 1;
        }
    }
    dropped
}

/// Run the whole pipeline for one packet, logging register writes only
/// when the program needs it: without a [`CompiledProgram::undo_log`] pc
/// a fault can only come before the first write, so the log stays empty
/// either way.
fn exec_body<V: PhvView>(
    prog: &CompiledProgram,
    ctables: &[Table],
    regs: &mut [RegState],
    view: &mut V,
    keys: &mut Vec<u64>,
    undo: &mut Vec<RegUndo>,
    stage_cost: &mut [u64],
) -> Result<(), SimError> {
    if prog.undo_log.is_none() {
        exec_range::<V, false>(prog, ctables, regs, view, keys, undo, stage_cost)
    } else {
        exec_range::<V, true>(prog, ctables, regs, view, keys, undo, stage_cost)
    }
}

/// Execute `body`, and the action bodies its `Apply`s run, in one
/// dispatch loop: the single loop of the fast path. An action body runs
/// inline — the loop moves into its range and comes back after the
/// `Apply` — so a table hit costs no call. Generic over [`PhvView`] so the
/// identical loop runs one contiguous packet ([`ScalarView`]) or one lane
/// of an SoA batch ([`LaneView`], driven by [`run_batch`]). `UNDO` logs
/// every register write to `undo`; [`exec_body`] turns it off where no
/// fault can follow a write.
///
/// Cost is not counted here but corrected: the caller has already charged
/// `stage_cost` every stage's length, an `Apply` charges its body's length
/// to its own stage, and the loop gives back what it does not dispatch —
/// the `target - pc - 1` instructions a taken jump skips, and on a fault
/// everything after the faulting instruction. Positions of `body` name
/// their own stage (`stage_of`); an action body's belong to the stage of
/// the `Apply` that ran it.
fn exec_range<V: PhvView, const UNDO: bool>(
    prog: &CompiledProgram,
    ctables: &[Table],
    regs: &mut [RegState],
    view: &mut V,
    keys: &mut Vec<u64>,
    undo: &mut Vec<RegUndo>,
    stage_cost: &mut [u64],
) -> Result<(), SimError> {
    let (mut pc, mut end) = (prog.body.0 as usize, prog.body.1 as usize);
    // While an action body runs: its `Apply`'s pc and stage.
    let mut caller: Option<(usize, usize)> = None;
    macro_rules! stage_here {
        () => {
            match caller {
                Some((_, s)) => s,
                None => prog.stage_of[pc] as usize,
            }
        };
    }
    macro_rules! fault {
        ($e:expr) => {{
            refund_unreached(prog, stage_cost, caller, pc, end);
            return Err($e);
        }};
    }
    // A jump is forward and stays in its range ([`validate`]), so the
    // skipped instructions all belong to the jump's own stage.
    macro_rules! jump {
        ($target:expr) => {{
            let target = *$target as usize;
            stage_cost[stage_here!()] -= (target - pc - 1) as u64;
            pc = target;
            continue;
        }};
    }
    loop {
        if pc >= end {
            // The end of `body`, or of an action body: back after its
            // `Apply`.
            let Some((apply, _)) = caller.take() else { return Ok(()) };
            (pc, end) = (apply + 1, prog.body.1 as usize);
            continue;
        }
        // SAFETY: `pc < end`, and `end` is the end of `body` or of an
        // action body, both within `code`, as is every jump target
        // ([`validate`]).
        let instr = unsafe { prog.code.get_unchecked(pc) };
        match instr {
            Instr::LoadSlotDyn { dst, base, count, idx, diag } => {
                let i = ov(view, idx);
                if i >= *count as u64 {
                    fault!(SimError::IndexOutOfBounds {
                        what: prog.diags[*diag as usize].clone(),
                        index: i,
                        len: *count as usize,
                    });
                }
                // `i < count` just checked; `base + count <= len`
                // validated at build.
                let v = view.get(*base as usize + i as usize);
                view.set_temp(*dst, v);
            }
            Instr::LoadReg { dst, reg, cell } => {
                let c = ov(view, cell) as usize;
                let r = &regs[*reg as usize];
                match r.cells.get(c) {
                    Some(v) => view.set_temp(*dst, *v),
                    None => fault!(SimError::IndexOutOfBounds {
                        what: format!("{}[{}]", r.reg, r.instance),
                        index: c as u64,
                        len: r.cells.len(),
                    }),
                }
            }
            Instr::Bin { dst, op, a, b } => {
                let x = ov(view, a);
                let y = ov(view, b);
                let v = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            fault!(SimError::DivByZero);
                        }
                        x / y
                    }
                    BinOp::Lt => (x < y) as u64,
                    BinOp::Le => (x <= y) as u64,
                    BinOp::Gt => (x > y) as u64,
                    BinOp::Ge => (x >= y) as u64,
                    BinOp::Eq => (x == y) as u64,
                    BinOp::Ne => (x != y) as u64,
                    BinOp::And => (x != 0 && y != 0) as u64,
                    BinOp::Or => (x != 0 || y != 0) as u64,
                };
                view.set_temp(*dst, v);
            }
            Instr::Not { dst, a } => {
                let v = (ov(view, a) == 0) as u64;
                view.set_temp(*dst, v);
            }
            Instr::Neg { dst, a } => {
                let v = ov(view, a).wrapping_neg();
                view.set_temp(*dst, v);
            }
            Instr::HashInit { dst, val } => view.set_temp(*dst, *val),
            Instr::HashMix { acc, src } => {
                let v = splitmix(view.temp(*acc) ^ ov(view, src));
                view.set_temp(*acc, v);
            }
            Instr::HashMod { acc, range } => {
                let v = view.temp(*acc) % *range;
                view.set_temp(*acc, v);
            }
            Instr::HashMask { acc, mask } => {
                let v = view.temp(*acc) & *mask;
                view.set_temp(*acc, v);
            }
            Instr::Hash1Mask { slot, salt, src, mask } => {
                let h = splitmix(*salt ^ ov(view, src)) & *mask;
                view.set(*slot as usize, h);
            }
            Instr::Hash1Mod { slot, salt, src, range } => {
                let h = splitmix(*salt ^ ov(view, src)) % *range;
                view.set(*slot as usize, h);
            }
            Instr::StoreSlot { slot, src } => {
                let v = ov(view, src);
                view.set(*slot as usize, v);
            }
            Instr::StoreSlotDyn { base, count, idx, src, diag } => {
                let i = ov(view, idx);
                if i >= *count as u64 {
                    fault!(SimError::IndexOutOfBounds {
                        what: prog.diags[*diag as usize].clone(),
                        index: i,
                        len: *count as usize,
                    });
                }
                let v = ov(view, src);
                // As in `LoadSlotDyn` — window validated at build.
                view.set(*base as usize + i as usize, v);
            }
            Instr::StoreReg { reg, cell, src } => {
                let c = ov(view, cell) as usize;
                let v = ov(view, src);
                let r = &mut regs[*reg as usize];
                if c >= r.cells.len() {
                    fault!(SimError::IndexOutOfBounds {
                        what: format!("{}[{}]", r.reg, r.instance),
                        index: c as u64,
                        len: r.cells.len(),
                    });
                }
                if UNDO {
                    undo.push((*reg as u32, c as u64, r.cells[c]));
                }
                r.cells[c] = v & r.elem_mask;
            }
            Instr::RegAdd { reg, cell, add } => {
                let c = ov(view, cell) as usize;
                let v = ov(view, add);
                let r = &mut regs[*reg as usize];
                if c >= r.cells.len() {
                    fault!(SimError::IndexOutOfBounds {
                        what: format!("{}[{}]", r.reg, r.instance),
                        index: c as u64,
                        len: r.cells.len(),
                    });
                }
                let old = r.cells[c];
                if UNDO {
                    undo.push((*reg as u32, c as u64, old));
                }
                r.cells[c] = old.wrapping_add(v) & r.elem_mask;
            }
            Instr::SketchStep { idx_slot, salt, src, mask, reg, add, dst_slot } => {
                let h = splitmix(*salt ^ ov(view, src)) & *mask;
                // The cell is the index as stored — the slot's own width
                // mask re-applied — which is what the unfused `RegAdd`
                // would have read back.
                let c = view.set(*idx_slot as usize, h) as usize;
                let v = ov(view, add);
                let r = &mut regs[*reg as usize];
                // In bounds: [`peephole`] only forms this instruction where
                // the range pass puts the index below `cells.len()`, and
                // shards clone the register file at full length.
                let old = r.cells[c];
                if UNDO {
                    undo.push((*reg as u32, c as u64, old));
                }
                let new = old.wrapping_add(v) & r.elem_mask;
                r.cells[c] = new;
                view.set(*dst_slot as usize, new);
            }
            Instr::HashRead { idx_slot, salt, src, mask, reg, dst_slot } => {
                // The index as stored, as in `SketchStep`; in bounds by
                // the range pass ([`peephole`]).
                let h = splitmix(*salt ^ ov(view, src)) & *mask;
                let c = view.set(*idx_slot as usize, h) as usize;
                let v = regs[*reg as usize].cells[c];
                view.set(*dst_slot as usize, v);
            }
            Instr::HashAdd { idx_slot, salt, src, mask, reg, add } => {
                let h = splitmix(*salt ^ ov(view, src)) & *mask;
                let c = view.set(*idx_slot as usize, h) as usize;
                let v = ov(view, add);
                let r = &mut regs[*reg as usize];
                let old = r.cells[c];
                if UNDO {
                    undo.push((*reg as u32, c as u64, old));
                }
                r.cells[c] = old.wrapping_add(v) & r.elem_mask;
            }
            Instr::MinOrInit { slot, src } => {
                // A select, not a branch on packet data. The not-taken arm
                // stores `cur` back raw, so a slot holding bits above its
                // mask keeps them, as it did when nothing was stored.
                let x = ov(view, src);
                view.update(*slot as usize, |cur, m| if x < cur || cur == 0 { x & m } else { cur });
            }
            Instr::CondStore { test: t, slot, src } => {
                // A select, as `MinOrInit` is.
                let (hold, x) = (test(view, t), ov(view, src));
                view.update(*slot as usize, |cur, m| if hold { x & m } else { cur });
            }
            Instr::RegToSlot { slot, reg, cell } => {
                let c = ov(view, cell) as usize;
                let r = &regs[*reg as usize];
                match r.cells.get(c) {
                    Some(v) => {
                        let v = *v;
                        view.set(*slot as usize, v);
                    }
                    None => fault!(SimError::IndexOutOfBounds {
                        what: format!("{}[{}]", r.reg, r.instance),
                        index: c as u64,
                        len: r.cells.len(),
                    }),
                }
            }
            Instr::JFAnd { t1, t2, target } => {
                if !(test(view, t1) && test(view, t2)) {
                    jump!(target);
                }
            }
            Instr::JFOr { t1, t2, target } => {
                if !(test(view, t1) || test(view, t2)) {
                    jump!(target);
                }
            }
            Instr::JF { test: t, target } => {
                if !test(view, t) {
                    jump!(target);
                }
            }
            Instr::JT { test: t, target } => {
                if test(view, t) {
                    jump!(target);
                }
            }
            Instr::Jmp { target } => jump!(target),
            Instr::Apply { site } => {
                let site = &prog.apply_sites[*site as usize];
                keys.clear();
                for op in &site.key_ops {
                    keys.push(ov(view, op));
                }
                let action = match ctables[site.table as usize].lookup(keys) {
                    Some((action, data)) => {
                        for pair in data.chunks_exact(2) {
                            view.set(pair[0] as usize, pair[1]);
                        }
                        Some(action)
                    }
                    None => match &prog.tables[site.table as usize].default_action {
                        DefaultAction::None => None,
                        DefaultAction::Run(id) => Some(*id),
                        DefaultAction::Unknown(name) => {
                            fault!(SimError::UnknownAction(name.clone()))
                        }
                    },
                };
                if let Some(id) = action {
                    // `Apply` appears only in `body` ([`validate`]), so
                    // no other body is running.
                    let (bs, be) = prog.action_code[id as usize];
                    let s = prog.stage_of[pc] as usize;
                    stage_cost[s] += u64::from(be - bs);
                    caller = Some((pc, s));
                    (pc, end) = (bs as usize, be as usize);
                    continue;
                }
            }
        }
        pc += 1;
    }
}

// ------------------------------------------------------- batch execution

/// Reusable scratch for SoA batches: the column-major slot and temp
/// matrices. One per replay worker, so batch execution allocates nothing
/// per batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchCtx {
    /// Column-major slot matrix (`phv_len * n`): slot `s` of lane `l`
    /// lives at `slots[s * n + l]`. The caller gathers packet `l`'s input
    /// into column `l` before [`run_batch`] and may read the final PHV
    /// back out of the column afterwards.
    pub slots: Vec<u64>,
    /// Column-major temp matrix (`temp_count * n`).
    pub temps: Vec<u64>,
    /// Reusable table-key buffer.
    pub keys: Vec<u64>,
}

impl BatchCtx {
    /// Size the matrices for an `n`-lane batch of `prog`. The caller
    /// overwrites every input column before running.
    pub fn prepare(&mut self, prog: &CompiledProgram, phv_len: usize, n: usize) {
        self.slots.clear();
        self.slots.resize(phv_len * n, 0);
        self.temps.clear();
        self.temps.resize(prog.temp_count.max(1) * n, 0);
    }
}

/// Execute an `n`-lane SoA batch **lane-major**: lane 0, lane 1, … each
/// run to completion through [`exec_range`], so lane order is trace order
/// and the result is the scalar loop's by construction. A faulting lane
/// rolls back its own register writes and is counted as a drop, exactly
/// like a scalar packet (its column holds the unspecified post-fault PHV).
/// Returns the number of dropped lanes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch(
    prog: &CompiledProgram,
    ctables: &[Table],
    regs: &mut [RegState],
    masks: &[u64],
    n: usize,
    bctx: &mut BatchCtx,
    undo: &mut Vec<RegUndo>,
    stage_cost: &mut [u64],
) -> u64 {
    assert!(n > 0, "empty batch");
    assert_eq!(bctx.slots.len(), masks.len() * n, "matrices sized by BatchCtx::prepare");
    assert!(bctx.temps.len() >= prog.temp_count * n, "matrices sized by BatchCtx::prepare");
    charge_stage_lengths(prog, stage_cost, n as u64);
    let BatchCtx { slots, temps, keys } = bctx;
    let mut dropped = 0u64;
    for lane in 0..n {
        undo.clear();
        let mut view = LaneView { slots, masks, temps, n, lane };
        let r = exec_body(prog, ctables, regs, &mut view, keys, undo, stage_cost);
        if r.is_err() {
            rollback(regs, undo);
            dropped += 1;
        }
    }
    dropped
}

/// Human-readable listing of the lowered program, one stage per section —
/// the ground truth for "what does this packet actually execute". The
/// first line says whether packets pay for an undo log, and if so which
/// instruction makes them; an elided log names the install contracts the
/// range pass relied on.
pub(crate) fn disasm(prog: &CompiledProgram) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = match (prog.undo_log, prog.contracts.as_slice()) {
        (None, []) => writeln!(out, "undo log: elided"),
        (None, contracts) => {
            let terms: Vec<String> =
                contracts.iter().map(|c| format!("{} < {}", c.field, c.limit)).collect();
            writeln!(out, "undo log: elided (install contract: {})", terms.join(", "))
        }
        (Some(pc), _) => writeln!(out, "undo log: kept (first fault after a write at pc {pc})"),
    };
    for (s, &(start, end)) in prog.stages.iter().enumerate() {
        let _ = writeln!(out, "stage {s}: [{start}..{end}]");
        for pc in start as usize..end as usize {
            let _ = writeln!(out, "  {pc:>5}  {:?}", prog.code[pc]);
        }
    }
    for (id, &(start, end)) in prog.action_code.iter().enumerate() {
        let name =
            prog.action_ids.iter().find(|(_, &v)| v == id as u32).map(|(k, _)| &**k).unwrap_or("?");
        let _ = writeln!(out, "action {id} ({name}): [{start}..{end}]");
        for pc in start as usize..end as usize {
            let _ = writeln!(out, "  {pc:>5}  {:?}", prog.code[pc]);
        }
    }
    out
}

pub(crate) use crate::interp::splitmix;

#[cfg(test)]
mod tests {
    //! Cost exactness. Every expected `stage_cost` below was counted by
    //! hand from the program's `dump_bytecode()` listing (quoted beside
    //! it), not computed by a second loop. Each program is a dependency
    //! chain exactly as deep as its target has stages, so the layout — and
    //! with it the listing — is forced by the program, not by a solver
    //! tie-break.

    use super::*;
    use p4all_core::Compiler;
    use p4all_pisa::presets;

    fn build(src: &str, stages: usize) -> Switch {
        let target = p4all_pisa::TargetSpec { stages, ..presets::paper_eval(1 << 14) };
        let c = Compiler::new(target).compile(src).unwrap();
        let program = p4all_lang::parse(src).unwrap();
        Switch::build(&c.concrete, &program).unwrap()
    }

    /// `stage_cost` of one packet with these header fields on a reset
    /// switch, and whether it ran to completion.
    fn cost_of(sw: &mut Switch, fields: &[(&str, u64)]) -> (Vec<u64>, Result<(), SimError>) {
        sw.reset();
        sw.begin_packet();
        for (f, v) in fields {
            sw.set_header(f, *v).unwrap();
        }
        let r = sw.run_packet();
        (sw.stage_cost().to_vec(), r)
    }

    // stage 0: [0..2]   Bin; StoreSlot
    // stage 1: [2..6]   Bin; StoreSlot; Bin; StoreSlot
    const STRAIGHT: &str = r#"
        header h { bit<32> x; }
        struct metadata { bit<32> a; bit<32> b; }
        action one() { meta.a = hdr.x + 1; }
        action two() { meta.b = meta.a + 2; meta.b = meta.b * 3; }
        control Main() { apply { one(); two(); } }
    "#;

    #[test]
    fn straight_line_costs_the_stage_lengths() {
        let mut sw = build(STRAIGHT, 2);
        assert_eq!(sw.compiled.stages, [(0, 2), (2, 6)]);
        assert_eq!(cost_of(&mut sw, &[("x", 5)]), (vec![2, 4], Ok(())));
    }

    // stage 0: [0..1]   StoreSlot
    // stage 1: [1..6]   JF -> 6; Bin; StoreSlot; Bin; StoreSlot
    // stage 2: [6..7]   StoreSlot
    const GUARDED: &str = r#"
        header h { bit<32> x; }
        struct metadata { bit<32> a; bit<32> b; bit<32> c; }
        action one() { meta.a = hdr.x; }
        action two() { meta.b = meta.a + 2; meta.b = meta.b * 3; }
        action three() { meta.c = meta.b; }
        control Main() { apply { one(); if (meta.a == 1) { two(); } three(); } }
    "#;

    #[test]
    fn a_taken_jump_gives_back_what_it_skipped() {
        let mut sw = build(GUARDED, 3);
        assert_eq!(sw.compiled.stages, [(0, 1), (1, 6), (6, 7)]);
        // Guard holds: the JF falls through and all five run.
        assert_eq!(cost_of(&mut sw, &[("x", 1)]), (vec![1, 5, 1], Ok(())));
        // Guard fails: the JF alone is dispatched, to the stage's end.
        assert_eq!(cost_of(&mut sw, &[("x", 0)]), (vec![1, 1, 1], Ok(())));
    }

    // stage 0: [10..11]   StoreSlot
    // stage 1: [11..15]   Bin; StoreSlot; Apply(plain); StoreSlot
    // stage 2: [15..16]   Apply(dflt)
    // stage 3: [16..18]   Bin; StoreSlot
    // action hit:   [0..7]  JF -> 5; StoreSlot; Bin; StoreSlot; Jmp -> 6;
    //                       StoreSlot; StoreSlot
    // action hit2:  [7..8]  StoreSlot
    // action miss2: [8..10] Bin; StoreSlot
    const TABLES: &str = r#"
        header h { bit<32> k; bit<32> x; }
        struct metadata {
            bit<32> a; bit<32> b; bit<32> c; bit<32> d; bit<32> e; bit<32> f; bit<32> g;
        }
        action pre() { meta.a = hdr.x; }
        action before() { meta.d = meta.a + 1; }
        action hit() {
            if (meta.a == 1) { meta.b = 10; meta.b = meta.b + 1; } else { meta.b = 20; }
            meta.c = 1;
        }
        action after() { meta.e = meta.a; }
        action hit2() { meta.f = meta.b; }
        action miss2() { meta.f = meta.d + meta.e; }
        action post() { meta.g = meta.f + meta.c; }
        table plain { key = { hdr.k; } actions = { hit; } size = 16; }
        table dflt {
            key = { hdr.k; }
            actions = { hit2; miss2; }
            size = 16;
            default_action = miss2;
        }
        control Main() {
            apply { pre(); before(); plain.apply(); after(); dflt.apply(); post(); }
        }
    "#;

    #[test]
    fn an_action_body_is_charged_to_the_stage_that_applied_it() {
        let mut sw = build(TABLES, 4);
        assert_eq!(sw.compiled.stages, [(10, 11), (11, 15), (15, 16), (16, 18)]);
        assert_eq!(sw.compiled.action_code, [(0, 7), (7, 8), (8, 10)]);
        sw.install_entry("plain", vec![1], "hit", &[]).unwrap();
        sw.install_entry("dflt", vec![2], "hit2", &[]).unwrap();
        // `plain` hits, then-arm: JF, three, and a taken Jmp over one, then
        // the last store — 6 of the body's 7. `dflt` misses into `miss2`.
        assert_eq!(cost_of(&mut sw, &[("k", 1), ("x", 1)]), (vec![1, 4 + 6, 1 + 2, 2], Ok(())));
        // Else-arm: the JF skips four, then two stores — 3 of 7.
        assert_eq!(cost_of(&mut sw, &[("k", 1), ("x", 0)]), (vec![1, 4 + 3, 1 + 2, 2], Ok(())));
        // `plain` misses with no default: the `Apply` alone.
        assert_eq!(cost_of(&mut sw, &[("k", 3), ("x", 1)]), (vec![1, 4, 1 + 2, 2], Ok(())));
        // `dflt` hits `hit2`, one instruction.
        assert_eq!(cost_of(&mut sw, &[("k", 2), ("x", 1)]), (vec![1, 4, 1 + 1, 2], Ok(())));
    }

    // stage 0: [0..2]    RegAdd a[0]; RegToSlot
    // stage 1: [2..10]   Bin; StoreSlot; LoadSlotDyn arr[i]; Bin; StoreSlot;
    //                    RegToSlot b[j]; Bin; StoreSlot
    // stage 2: [10..11]  StoreSlot
    const TOP_FAULT: &str = r#"
        header h { bit<32> i; bit<32> j; }
        struct metadata { bit<32>[4] arr; bit<32> t; bit<32> u; bit<32> v; }
        register<bit<32>>[4] a;
        register<bit<32>>[4] b;
        action first() { a[0] = a[0] + 1; meta.t = a[0]; }
        action second() {
            meta.u = meta.t + 1;
            meta.u = meta.arr[hdr.i] + meta.u;
            meta.v = b[hdr.j];
            meta.v = meta.v + 1;
        }
        action third() { meta.t = meta.v; }
        control Main() { apply { first(); second(); third(); } }
    "#;

    fn is_oob(r: &Result<(), SimError>) -> bool {
        matches!(r, Err(SimError::IndexOutOfBounds { .. }))
    }

    #[test]
    fn a_fault_mid_stage_is_charged_up_to_the_faulting_instruction() {
        let mut sw = build(TOP_FAULT, 3);
        assert_eq!(sw.compiled.stages, [(0, 2), (2, 10), (10, 11)]);
        assert_eq!(cost_of(&mut sw, &[("i", 1), ("j", 1)]), (vec![2, 8, 1], Ok(())));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 1);
        // `arr[9]`: the LoadSlotDyn is the third instruction of stage 1.
        let (cost, r) = cost_of(&mut sw, &[("i", 9), ("j", 1)]);
        assert!(is_oob(&r), "{r:?}");
        assert_eq!(cost, [2, 3, 0]);
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 0, "stage 0's increment rolls back");
        // `b[9]`: the RegToSlot is the sixth.
        let (cost, r) = cost_of(&mut sw, &[("i", 1), ("j", 9)]);
        assert!(is_oob(&r), "{r:?}");
        assert_eq!(cost, [2, 6, 0]);
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 0, "stage 0's increment rolls back");
    }

    // stage 0: [4..6]     RegAdd a[0]; RegToSlot
    // stage 1: [6..10]    Bin; StoreSlot; Apply(tbl); StoreSlot
    // stage 2: [10..14]   Bin; Bin; Bin; StoreSlot
    // action hit: [0..4]  StoreSlot; RegToSlot b[j]; Bin; StoreSlot
    const BODY_FAULT: &str = r#"
        header h { bit<32> k; bit<32> j; }
        struct metadata { bit<32> t; bit<32> u; bit<32> v; bit<32> w; bit<32> y; bit<32> z; }
        register<bit<32>>[4] a;
        register<bit<32>>[4] b;
        action first() { a[0] = a[0] + 1; meta.t = a[0]; }
        action before() { meta.w = meta.t + 1; }
        action hit() { meta.u = meta.t; meta.v = b[hdr.j]; meta.v = meta.v + 1; }
        action after() { meta.y = meta.t; }
        action last() { meta.z = meta.v + meta.w + meta.y + meta.u; }
        table tbl { key = { hdr.k; } actions = { hit; } size = 16; }
        control Main() { apply { first(); before(); tbl.apply(); after(); last(); } }
    "#;

    #[test]
    fn a_fault_inside_an_action_body_is_charged_to_the_applying_stage() {
        let mut sw = build(BODY_FAULT, 3);
        assert_eq!(sw.compiled.stages, [(4, 6), (6, 10), (10, 14)]);
        assert_eq!(sw.compiled.action_code, [(0, 4)]);
        sw.install_entry("tbl", vec![1], "hit", &[]).unwrap();
        assert_eq!(cost_of(&mut sw, &[("k", 1), ("j", 1)]), (vec![2, 4 + 4, 4], Ok(())));
        assert_eq!(cost_of(&mut sw, &[("k", 0), ("j", 9)]), (vec![2, 4, 4], Ok(())));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 1);
        // `b[9]` in the body: three of stage 1 up to the `Apply`, two of
        // the body up to the RegToSlot; the store after the `Apply` and
        // all of stage 2 never run.
        let (cost, r) = cost_of(&mut sw, &[("k", 1), ("j", 9)]);
        assert!(is_oob(&r), "{r:?}");
        assert_eq!(cost, [2, 3 + 2, 0]);
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 0, "stage 0's increment rolls back");
    }

    /// A hand-assembled one-stage program, held to [`validate`] like a
    /// lowered one.
    fn one_stage(code: Vec<Instr>, masks: &[u64], regs: &[RegState]) -> CompiledProgram {
        let n = code.len() as u32;
        let prog = CompiledProgram {
            code,
            stages: vec![(0, n)],
            body: (0, n),
            stage_of: vec![0; n as usize],
            data_limit: vec![u64::MAX; masks.len()],
            ..CompiledProgram::default()
        };
        validate(&prog, masks.len(), regs.len());
        prog
    }

    /// `SketchStep` takes its cell from the index as stored, not from the
    /// raw hash: with an index slot narrower than the hash mask it must
    /// touch the cell the unfused triple reads back through the slot.
    #[test]
    fn sketch_step_touches_the_cell_the_unfused_triple_does() {
        use crate::state::mask;
        // key, a 4-bit index under a 6-bit hash mask, count.
        let masks = [mask(32), mask(4), mask(32)];
        let regs = vec![RegState::new("cms".into(), 0, 0, 32, 64)];
        let salt = splitmix(7);
        let triple = vec![
            Instr::Hash1Mask { slot: 1, salt, src: Opnd::S(0), mask: 63 },
            Instr::RegAdd { reg: 0, cell: Opnd::S(1), add: Opnd::I(1) },
            Instr::RegToSlot { slot: 2, reg: 0, cell: Opnd::S(1) },
        ];
        let unfused = one_stage(triple, &masks, &regs);
        let ranges = slot_ranges(&unfused, &masks, &[false; 3]);
        let fused = fuse_sketch(&unfused.code, 0, &ranges, &regs).expect("63 & 15 < 64 cells");
        let fused = one_stage(vec![fused], &masks, &regs);

        let run = |prog: &CompiledProgram, regs: &mut [RegState], key: u64| {
            let mut phv = Phv::new(masks.to_vec());
            phv.set(0, key);
            let mut ctx = ExecCtx::for_program(prog);
            let mut cost = [0u64];
            run_packet(prog, &[], regs, &mut phv, &mut ctx, &mut Vec::new(), &mut cost).unwrap();
            assert_eq!(cost[0], prog.code.len() as u64);
            phv.slots
        };
        let (mut ra, mut rb) = (regs.clone(), regs);
        let mut narrowed = 0;
        for key in 0..64 {
            assert_eq!(run(&unfused, &mut ra, key), run(&fused, &mut rb, key), "key {key}");
            assert_eq!(ra[0].cells, rb[0].cells, "key {key}");
            narrowed += u32::from(splitmix(salt ^ key) & 63 > 15);
        }
        assert!(narrowed > 0, "no key hashed above the index slot's width");
        assert!(ra[0].cells[16..].iter().all(|&c| c == 0), "cells past the slot's width untouched");
    }

    /// A slot–immediate comparison folds into a range check at lowering,
    /// with the immediate on either side; it must decide every operator
    /// exactly as the comparison does, at the ends of `u64` too, and print
    /// as that comparison.
    #[test]
    fn a_slot_immediate_test_decides_what_its_comparison_does() {
        use BinOp::*;
        let edges = [0, 1, 4, 5, 6, u64::MAX - 1, u64::MAX];
        let mut phv = Phv::new(vec![u64::MAX]);
        let mut temps = [0u64];
        for op in [Lt, Le, Gt, Ge, Eq, Ne] {
            for k in edges {
                let fwd = Test::new(op, Opnd::S(0), Opnd::I(k));
                let rev = Test::new(op, Opnd::I(k), Opnd::S(0));
                assert!(matches!(fwd, Test::Slot { .. }) && matches!(rev, Test::Slot { .. }));
                for x in edges {
                    phv.slots[0] = x;
                    let view = ScalarView { phv: &mut phv, temps: &mut temps };
                    let want = Test::Opnds(Box::new((op, Opnd::I(x), Opnd::I(k))));
                    assert_eq!(test(&view, &fwd), test(&view, &want), "{x} {op:?} {k}");
                    let want = Test::Opnds(Box::new((op, Opnd::I(k), Opnd::I(x))));
                    assert_eq!(test(&view, &rev), test(&view, &want), "{k} {op:?} {x}");
                }
            }
        }
        let shown = |op, a, b| format!("{:?}", Test::new(op, a, b));
        assert_eq!(shown(Eq, Opnd::S(8), Opnd::I(1)), "S(8) == 1");
        assert_eq!(shown(Ne, Opnd::S(22), Opnd::I(0)), "S(22) != 0");
        assert_eq!(shown(Lt, Opnd::I(3), Opnd::S(4)), "S(4) > 3");
        assert_eq!(shown(Ge, Opnd::S(4), Opnd::I(7)), "S(4) >= 7");
        assert_eq!(shown(Lt, Opnd::S(4), Opnd::S(7)), "S(4) < S(7)");
        assert_eq!(shown(Ne, Opnd::T(0), Opnd::I(0)), "T(0) != I(0)");
    }

    /// Boxing the generic test keeps a fused two-comparison jump below
    /// `SketchStep`, so the typed guards did not grow the instruction
    /// (72 bytes when a jump carried its operands inline).
    #[test]
    fn an_instruction_is_at_most_one_cache_line() {
        assert!(std::mem::size_of::<Instr>() <= 64, "{}", std::mem::size_of::<Instr>());
    }

    // Undo-log elision. Each expected header line was read off the listing
    // quoted beside the program: the first instruction that may fault
    // after one that may write a register, in code order.

    /// The listing's header line, and whether the generated native source
    /// logs register writes.
    fn undo_of(sw: &Switch) -> (String, bool) {
        let listing = sw.dump_bytecode();
        let header = listing.lines().next().unwrap().to_string();
        (header, crate::codegen::generate(sw).source.contains("undo.log[undo.len] = "))
    }

    // stage 0: [0..1]   SketchStep c[hash(k) & 63] += 1
    // stage 1: [1..2]   MinOrInit min
    const SKETCH: &str = r#"
        header h { bit<32> k; }
        struct metadata { bit<32> i; bit<32> n; bit<32> min; }
        register<bit<32>>[64] c;
        action bump() { meta.i = hash(hdr.k, 64); c[meta.i] = c[meta.i] + 1; meta.n = c[meta.i]; }
        action set_min() { meta.min = meta.n; }
        control Main() { apply { bump(); if (meta.n < meta.min || meta.min == 0) { set_min(); } } }
    "#;

    #[test]
    fn a_pure_sketch_program_runs_without_an_undo_log() {
        let mut sw = build(SKETCH, 2);
        assert_eq!(sw.compiled.stages, [(0, 1), (1, 2)]);
        assert!(matches!(sw.compiled.code[0], Instr::SketchStep { .. }));
        assert!(matches!(sw.compiled.code[1], Instr::MinOrInit { .. }));
        assert_eq!(sw.compiled.undo_log, None);
        assert_eq!(undo_of(&sw), ("undo log: elided".to_string(), false));
        assert_eq!(cost_of(&mut sw, &[("k", 7)]), (vec![1, 1], Ok(())));
        assert_eq!(sw.meta("min").unwrap(), 1);
    }

    // stage 0: [0..2]   Bin Div; StoreSlot q
    // stage 1: [2..3]   RegAdd a[0] += q
    const DIV_FIRST: &str = r#"
        header h { bit<32> x; bit<32> y; }
        struct metadata { bit<32> q; }
        register<bit<32>>[4] a;
        action divide() { meta.q = hdr.x / hdr.y; }
        action tally() { a[0] = a[0] + meta.q; }
        control Main() { apply { divide(); tally(); } }
    "#;

    #[test]
    fn a_fault_before_the_first_write_keeps_no_log_and_rolls_nothing_back() {
        let mut sw = build(DIV_FIRST, 2);
        assert_eq!(sw.compiled.stages, [(0, 2), (2, 3)]);
        assert_eq!(sw.compiled.undo_log, None);
        // `RegAdd` may fault, but only before its own write.
        assert_eq!(undo_of(&sw), ("undo log: elided".to_string(), false));
        assert_eq!(cost_of(&mut sw, &[("x", 12), ("y", 3)]), (vec![2, 1], Ok(())));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 4);
        sw.write_register("a", 0, 0, 40).unwrap();
        sw.begin_packet();
        sw.set_header("x", 12).unwrap();
        assert_eq!(sw.run_packet(), Err(SimError::DivByZero));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 40, "nothing was written");
    }

    // action hit: [0..1]  StoreSlot u
    // stage 0:    [1..4]  RegAdd a[0]; Bin Add; StoreSlot t
    // stage 1:    [4..5]  Apply(tbl) — default `ghost` is not one of the
    //                     table's actions, so it was never compiled
    const UNKNOWN_DEFAULT: &str = r#"
        header h { bit<32> k; }
        struct metadata { bit<32> t; bit<32> u; }
        register<bit<32>>[4] a;
        action first() { a[0] = a[0] + 1; meta.t = hdr.k + 1; }
        action hit() { meta.u = 1; }
        action ghost() { meta.u = 2; }
        table tbl { key = { meta.t; } actions = { hit; } size = 16; default_action = ghost; }
        control Main() { apply { first(); tbl.apply(); } }
    "#;

    #[test]
    fn an_unknown_default_applied_after_a_write_keeps_the_log() {
        let mut sw = build(UNKNOWN_DEFAULT, 2);
        assert_eq!(sw.compiled.stages, [(1, 4), (4, 5)]);
        assert_eq!(sw.compiled.action_code, [(0, 1)]);
        assert_eq!(sw.compiled.undo_log, Some(4));
        let kept = "undo log: kept (first fault after a write at pc 4)".to_string();
        assert_eq!(undo_of(&sw), (kept, true));
        sw.install_entry("tbl", vec![2], "hit", &[]).unwrap();
        assert_eq!(cost_of(&mut sw, &[("k", 1)]), (vec![3, 1 + 1], Ok(())));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 1);
        let (_, r) = cost_of(&mut sw, &[("k", 5)]);
        assert_eq!(r, Err(SimError::UnknownAction("ghost".into())));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 0, "the increment rolls back");
    }

    // stage 0: [0..2]   RegAdd a[0]; StoreSlot t
    // stage 1: [2..4]   Bin Div; StoreSlot q
    const DIV_AFTER: &str = r#"
        header h { bit<32> x; bit<32> y; }
        struct metadata { bit<32> t; bit<32> q; }
        register<bit<32>>[4] a;
        action tally() { a[0] = a[0] + 1; meta.t = hdr.x; }
        action divide() { meta.q = meta.t / hdr.y; }
        control Main() { apply { tally(); divide(); } }
    "#;

    #[test]
    fn a_division_after_a_register_add_keeps_the_log() {
        let mut sw = build(DIV_AFTER, 2);
        assert_eq!(sw.compiled.stages, [(0, 2), (2, 4)]);
        assert_eq!(sw.compiled.undo_log, Some(2));
        let kept = "undo log: kept (first fault after a write at pc 2)".to_string();
        assert_eq!(undo_of(&sw), (kept, true));
        let (cost, r) = cost_of(&mut sw, &[("x", 6), ("y", 0)]);
        assert_eq!((cost, r), (vec![2, 1], Err(SimError::DivByZero)));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 0, "the increment rolls back");
    }

    // action hit: [0..3]  RegAdd a[0]; Bin Div; StoreSlot q
    // stage 0:    [3..4]  Apply(tbl)
    const BODY_WRITES_THEN_FAULTS: &str = r#"
        header h { bit<32> k; bit<32> y; }
        struct metadata { bit<32> q; }
        register<bit<32>>[4] a;
        action hit() { a[0] = a[0] + 1; meta.q = hdr.k / hdr.y; }
        table tbl { key = { hdr.k; } actions = { hit; } size = 16; }
        control Main() { apply { tbl.apply(); } }
    "#;

    #[test]
    fn an_action_body_that_writes_then_faults_keeps_the_log() {
        let mut sw = build(BODY_WRITES_THEN_FAULTS, 1);
        assert_eq!(sw.compiled.stages, [(3, 4)]);
        assert_eq!(sw.compiled.action_code, [(0, 3)]);
        assert_eq!(sw.compiled.undo_log, Some(1));
        let kept = "undo log: kept (first fault after a write at pc 1)".to_string();
        assert_eq!(undo_of(&sw), (kept, true));
        sw.install_entry("tbl", vec![1], "hit", &[]).unwrap();
        let (cost, r) = cost_of(&mut sw, &[("k", 1), ("y", 0)]);
        assert_eq!((cost, r), (vec![1 + 2], Err(SimError::DivByZero)));
        assert_eq!(sw.read_register("a", 0, 0).unwrap(), 0, "the body's increment rolls back");
    }

    // The slot-range pass and install contracts. Bounds below were worked
    // out by hand from the code quoted beside each program.

    /// Hand-assembled, one stage (slots: 0 key, 1 index, 2 out, 3 a
    /// field only installs set, under a contract of 64):
    ///   0  Hash1Mask S(1) = h(S(0)) & 63    S(1) <= 63 after it
    ///   1  JF S(0) == 7 -> 3
    ///   2  StoreSlot S(1) = 64              S(1) <= 64 on this path
    ///   3  RegAdd r0[S(1)] += 1             join: S(1) <= 64
    ///   4  RegToSlot S(2) = r1[S(3)]        S(3) <= 63 everywhere
    fn ranged(r0: u64, r1: u64) -> (CompiledProgram, SlotRanges, Vec<RegState>) {
        use crate::state::mask;
        let masks = [mask(32); 4];
        let regs = vec![
            RegState::new("r0".into(), 0, 0, 32, r0),
            RegState::new("r1".into(), 0, 0, 32, r1),
        ];
        let code = vec![
            Instr::Hash1Mask { slot: 1, salt: 1, src: Opnd::S(0), mask: 63 },
            Instr::JF { test: Test::new(BinOp::Eq, Opnd::S(0), Opnd::I(7)), target: 3 },
            Instr::StoreSlot { slot: 1, src: Opnd::I(64) },
            Instr::RegAdd { reg: 0, cell: Opnd::S(1), add: Opnd::I(1) },
            Instr::RegToSlot { slot: 2, reg: 1, cell: Opnd::S(3) },
        ];
        let mut prog = one_stage(code, &masks, &regs);
        prog.data_limit[3] = 64;
        let ranges = slot_ranges(&prog, &masks, &[false, false, false, true]);
        (prog, ranges, regs)
    }

    #[test]
    fn the_range_pass_bounds_hashes_stores_joins_and_contracts() {
        let (_, r, _) = ranged(65, 64);
        let max = |pc: usize, s: u32| r.max(pc, &Opnd::S(s));
        assert_eq!([max(0, 1), max(1, 1), max(2, 1), max(3, 1)], [u64::MAX, 63, 63, 64]);
        assert_eq!([max(0, 0), max(4, 2)], [u64::MAX, u64::MAX], "unbounded input, untouched");
        assert_eq!([max(0, 3), max(4, 3)], [63, 63], "a contract slot holds below its limit");
        // The join at pc 3 is 64: in bounds of 65 cells, one cell past 64.
        assert!(r.below(3, &Opnd::S(1), 65));
        assert!(!r.below(3, &Opnd::S(1), 64), "one cell past the register stays undischarged");
        assert!(r.below(4, &Opnd::S(3), 64));
        assert!(!r.below(4, &Opnd::S(3), 63), "one cell past the register stays undischarged");
        assert!(r.below(0, &Opnd::I(9), 10) && !r.below(0, &Opnd::I(10), 10));
    }

    #[test]
    fn an_index_one_cell_past_its_register_keeps_the_undo_log() {
        // r0 of 65 and r1 of 64 cells hold every index: nothing may fault.
        let (prog, ranges, regs) = ranged(65, 64);
        assert_eq!(fault_after_write(&prog, &ranges, &regs), Ok(()));
        // One cell short of the join's 64: the RegAdd may fault, but before
        // its own write.
        let (prog, ranges, regs) = ranged(64, 64);
        assert_eq!(fault_after_write(&prog, &ranges, &regs), Ok(()));
        // One cell short of the contract: the read after the write may.
        let (prog, ranges, regs) = ranged(65, 63);
        assert_eq!(fault_after_write(&prog, &ranges, &regs), Err(4));
    }

    /// A hash pair fuses only where the pass proves its index in bounds:
    /// `h & 63` into 64 cells fuses, into 63 it stays two checked steps.
    #[test]
    fn a_hash_pair_fuses_only_inside_its_register() {
        use crate::state::mask;
        let masks = [mask(32); 3];
        let code = vec![
            Instr::Hash1Mask { slot: 1, salt: 1, src: Opnd::S(0), mask: 63 },
            Instr::RegToSlot { slot: 2, reg: 0, cell: Opnd::S(1) },
        ];
        for (cells, fuses) in [(64, true), (63, false)] {
            let regs = vec![RegState::new("r".into(), 0, 0, 32, cells)];
            let prog = one_stage(code.clone(), &masks, &regs);
            let ranges = slot_ranges(&prog, &masks, &[false; 3]);
            let fused = fuse_hash(&prog.code, 0, &ranges, &regs);
            assert_eq!(matches!(fused, Some(Instr::HashRead { .. })), fuses, "{cells} cells");
        }
    }

    // stage 0: [1..5]  RegAdd a[0] += 1; Apply(tbl);
    //                  RegToSlot v = vals[S(slot)]; RegToSlot w = more[S(narrow)]
    // action hit: [0..1]  StoreSlot f = 1
    // `slot` and `narrow` are set by installs only, and index 16 cells;
    // `f` is written by `hit`, so it gets no contract.
    const CONTRACTED: &str = r#"
        header h { bit<32> k; }
        struct metadata { bit<8> f; bit<32> slot; bit<4> narrow; bit<32> v; bit<32> w; }
        register<bit<32>>[4] a;
        register<bit<32>>[16] vals;
        register<bit<32>>[16] more;
        action first() { a[0] = a[0] + 1; }
        action hit() { meta.f = 1; }
        action fetch() { meta.v = vals[meta.slot]; }
        action peek() { meta.w = more[meta.narrow]; }
        table tbl { key = { hdr.k; } actions = { hit; } size = 16; }
        control Main() { apply { first(); tbl.apply(); fetch(); peek(); } }
    "#;

    #[test]
    fn installs_are_held_to_the_contracts_the_listing_names() {
        let mut sw = build(CONTRACTED, 1);
        assert_eq!(sw.compiled.stages, [(1, 5)]);
        let elided = "undo log: elided (install contract: slot < 16, narrow < 16)";
        assert_eq!(undo_of(&sw), (elided.to_string(), false));
        assert_eq!(sw.install_contracts().collect::<Vec<_>>(), [("slot", 16), ("narrow", 16)]);
        let refused = |field: &str, value| SimError::DataOutOfRange {
            field: format!("meta.{field}"),
            value,
            limit: 16,
        };
        let install =
            |sw: &mut Switch, data: &[(&str, u64)]| sw.install_entry("tbl", vec![1], "hit", data);
        assert_eq!(install(&mut sw, &[("slot", 16)]), Err(refused("slot", 16)));
        let two = [("narrow", 3), ("slot", u64::MAX)];
        assert_eq!(install(&mut sw, &two), Err(refused("slot", u64::MAX)));
        assert_eq!(install(&mut sw, &[("narrow", 16)]), Err(refused("narrow", 16)));
        assert_eq!(sw.table_len("tbl").unwrap(), 0, "a refused install leaves nothing");
        // At the limit minus one, and an unrestricted field at any value.
        install(&mut sw, &[("slot", 15), ("narrow", 15), ("f", 300)]).unwrap();
        assert_eq!(cost_of(&mut sw, &[("k", 1)]), (vec![4 + 1], Ok(())));
        sw.write_register("vals", 0, 15, 7).unwrap();
        sw.begin_packet();
        sw.set_header("k", 1).unwrap();
        sw.run_packet().unwrap();
        assert_eq!((sw.meta("v").unwrap(), sw.meta("f").unwrap()), (7, 1));
        assert_eq!(
            refused("slot", 16).to_string(),
            "action data `meta.slot` = 16 indexes past a register of 16 cells"
        );
    }

    // Every replayed program undo-free. Each header line and fusion site
    // below was read off the listing quoted beside the test (`paper_eval`;
    // salts elided).

    /// `(pc, opcode)` of every fused hash pair and store select.
    fn sites(sw: &Switch) -> Vec<(usize, &'static str)> {
        let name = |i: &Instr| match i {
            Instr::HashRead { .. } => Some("HashRead"),
            Instr::HashAdd { .. } => Some("HashAdd"),
            Instr::CondStore { .. } => Some("CondStore"),
            _ => None,
        };
        sw.compiled.code.iter().enumerate().filter_map(|(pc, i)| Some((pc, name(i)?))).collect()
    }

    fn app(src: &str, memory_bits: u64) -> Switch {
        let c = Compiler::new(presets::paper_eval(memory_bits)).compile(src).unwrap();
        Switch::build(&c.concrete, &p4all_lang::parse(src).unwrap()).unwrap()
    }

    fn netcache_opts(rows: u64, slices: u64) -> p4all_elastic::apps::netcache::NetCacheOptions {
        let mut o = p4all_elastic::apps::netcache::NetCacheOptions::default();
        o.cms.max_rows = rows;
        o.kvs.max_slices = Some(slices);
        o
    }

    // NetCache (3 rows, 4 slices) at 2^16; at 2^15 alike, mask 1023 and
    // 256-cell slices. Where the slices' reads fall among the sketch rows
    // is the solver's choice, so the test finds them by register:
    //   2  Apply(kv_cache)                     sets kv_slice S(9), kv_idx S(10)
    //   3  SketchStep idx 1 … mask 2047        the first register write
    //   5  JFAnd S(8) == 1 && S(9) == 0 -> 7
    //   6  RegToSlot slot 11 = reg 3 [S(10)]   kv[idx]: S(10) < 512 by contract
    //  12, 14, 16  RegToSlot … reg 4, 5, 6 [S(10)], each under its JFAnd
    #[test]
    fn netcache_reads_its_values_under_an_install_contract() {
        let src = p4all_elastic::apps::netcache::source(&netcache_opts(3, 4));
        for (bits, cells) in [(1 << 15, 256), (1 << 16, 512)] {
            let sw = app(&src, bits);
            let elided = format!("undo log: elided (install contract: kv_idx < {cells})");
            assert_eq!(undo_of(&sw), (elided, false), "2^{}", bits.trailing_zeros());
            assert_eq!(sw.install_contracts().collect::<Vec<_>>(), [("kv_idx", cells)]);
            let code = &sw.compiled.code;
            let reads: Vec<usize> = (0..code.len())
                .filter(|&pc| match code[pc] {
                    Instr::RegToSlot { reg, .. } => sw.registers[reg as usize].reg == "kvs",
                    _ => false,
                })
                .collect();
            assert_eq!(reads.len(), 4, "one read per slice");
            for pc in reads {
                let (guard, i) = (&code[pc - 1], &code[pc]);
                assert!(matches!(i, Instr::RegToSlot { cell: Opnd::S(10), .. }), "{pc}: {i:?}");
                assert!(matches!(guard, Instr::JFAnd { .. }), "{pc}: {guard:?}");
            }
            assert_eq!(sites(&sw), [], "no hash pair or single-store guard");
            assert_eq!(sw.compiled.code.len(), 17);
        }
    }

    // Precision, its first probe (the other two alike with slots 2 and 3;
    // the test finds them by their writes, wherever the solver puts them):
    //   0  Hash1Mask slot 1 … mask 2047        S(1) <= 2047
    //   1  LoadReg t0 = reg 3 [S(1)]
    //   2  JF T(0) == I(0) -> 4
    //   3  StoreReg reg 3 [S(1)] = S(0)        a write
    //   4  RegToSlot slot 4 = reg 3 [S(1)]     2047 < 2048 cells: cannot fault
    #[test]
    fn precision_indexes_only_what_its_hashes_bound() {
        let sw = app(&p4all_elastic::apps::precision::source(&Default::default()), 1 << 16);
        assert_eq!(undo_of(&sw), ("undo log: elided".to_string(), false));
        // Each probe's write, then its read of the same cell.
        let mut cells: Vec<&Opnd> = (sw.compiled.code.windows(2))
            .filter_map(|w| match (&w[0], &w[1]) {
                (Instr::StoreReg { reg, cell, .. }, Instr::RegToSlot { reg: r, cell: c, .. })
                    if reg == r && cell == c =>
                {
                    Some(cell)
                }
                (Instr::StoreReg { .. }, next) => panic!("a write followed by {next:?}"),
                _ => None,
            })
            .collect();
        cells.sort_by_key(|c| format!("{c:?}"));
        assert_eq!(cells, [&Opnd::S(1), &Opnd::S(2), &Opnd::S(3)]);
        // Its hashes feed a `LoadReg` into a temp, and its guards are
        // `JFAnd`s or jump over register writes: nothing to fuse.
        assert_eq!(sites(&sw), []);
        assert_eq!(sw.compiled.code.len(), 30);
    }

    // ConQuest, stage 0 (stages 1-3 alike at pcs 7, 14, 21):
    //   0  JF S(1) == 0 -> 2
    //   1  HashAdd idx 2 … mask 2047, reg 0 += 1     was Hash1Mask; RegAdd
    //   2  JF S(1) != 0 -> 7
    //   3  Hash1Mask slot 2 … mask 2047
    //   4  LoadReg t0 = reg 0 [S(2)]                 2047 < 2048 cells
    #[test]
    fn conquest_bumps_each_snapshot_in_one_dispatch() {
        let sw = app(&p4all_elastic::apps::conquest::source(&Default::default()), 1 << 16);
        assert_eq!(undo_of(&sw), ("undo log: elided".to_string(), false));
        let adds = [(1, "HashAdd"), (8, "HashAdd"), (15, "HashAdd"), (22, "HashAdd")];
        assert_eq!(sites(&sw), adds);
        assert!(matches!(sw.compiled.code[4], Instr::LoadReg { cell: Opnd::S(2), .. }));
        assert_eq!(sw.compiled.code.len(), 28);
    }

    // joint-3tenant-mid (NetCache 4 rows / 2 slices, VLAN and LPM at 8192
    // cells, `paper_eval(2^17)`), 35 instructions before this pass. The
    // solver picks one of several co-optimal stage orders, so these pcs are
    // one listing's; the test holds only what no stage order changes.
    //   5  SketchStep … reg 0                  the first register write
    //  12  RegToSlot slot 15 = reg 4 [S(14)]   kv[idx]: cache::kv_idx < 1024
    //  15  HashRead idx 19 … reg 7 -> 22       routes::lpm[0]; was Hash1Mask;
    //  17  HashRead idx 20 … reg 8 -> 23        RegToSlot
    //  18  CondStore S(22) != 0: S(25) = S(22) lpm_take[0]; was JF; StoreSlot
    //  21  HashAdd idx 17 … reg 5 += 1         filter::vlan_ctr[0], under JF
    //  22  CondStore S(23) != 0: S(25) = S(23)  S(16) == 1
    //  23  HashRead idx 21 … reg 9 -> 24
    //  25  HashAdd idx 18 … reg 6 += 1
    //  26  CondStore S(24) != 0: S(25) = S(24)
    #[test]
    fn the_joint_replays_without_an_undo_log_in_27_instructions() {
        use p4all_core::{CompileCtx, CompileOptions, TenantProgram};
        use p4all_elastic::apps::{lpm, netcache, vlan};
        use p4all_lang::Tenant;
        let vlan_opts = vlan::VlanOptions { max_cells: Some(8192), ..Default::default() };
        let lpm_opts = lpm::LpmOptions { max_cells: Some(8192), ..Default::default() };
        let tenant =
            |name, weight, src| TenantProgram::new(Tenant::new(name, weight).unwrap(), src);
        let tenants = [
            tenant("cache", 2.0, netcache::source(&netcache_opts(4, 2))),
            tenant("filter", 1.0, vlan::source(&vlan_opts)),
            tenant("routes", 1.0, lpm::source(&lpm_opts)),
        ];
        let jc = CompileCtx::new(CompileOptions::default())
            .compile_joint(&tenants, &presets::paper_eval(1 << 17))
            .unwrap();
        let sw = Switch::build(&jc.compilation.concrete, &jc.joint.merged).unwrap();
        let elided = "undo log: elided (install contract: cache::kv_idx < 1024)";
        assert_eq!(undo_of(&sw), (elided.to_string(), false));
        let mut opcodes: Vec<&str> = sites(&sw).into_iter().map(|(_, op)| op).collect();
        opcodes.sort();
        let fused = ["CondStore", "CondStore", "CondStore", "HashAdd", "HashAdd"];
        assert_eq!(opcodes, [&fused[..], &["HashRead"; 3]].concat());
        // Each fused site by the register instance it touches, in pc order.
        let code = &sw.compiled.code;
        let at = |reg: u16| {
            let r = &sw.registers[reg as usize];
            format!("{}[{}]", r.reg, r.instance)
        };
        let reads: Vec<(usize, String, u32)> = (code.iter().enumerate())
            .filter_map(|(pc, i)| match *i {
                Instr::HashRead { reg, dst_slot, .. } => Some((pc, at(reg), dst_slot)),
                _ => None,
            })
            .collect();
        let lpm = ["routes::lpm[0]", "routes::lpm[1]", "routes::lpm[2]"];
        let mut rows: Vec<&str> = reads.iter().map(|r| r.1.as_str()).collect();
        rows.sort();
        assert_eq!(rows, lpm, "one fused probe per LPM row");
        // routes: every take tests the slot its row's probe wrote, after
        // the probe, and the takes keep row order: each overwrites S(25).
        let takes: Vec<(usize, u32)> = (code.iter().enumerate())
            .filter_map(|(pc, i)| match *i {
                Instr::CondStore { test: Test::Slot { slot, .. }, slot: 25, .. } => {
                    Some((pc, slot))
                }
                _ => None,
            })
            .collect();
        let row_of = |slot: u32| reads.iter().find(|r| r.2 == slot).map(|r| (r.0, r.1.as_str()));
        let by_row: Vec<(usize, &str)> = takes.iter().map(|t| row_of(t.1).unwrap()).collect();
        assert_eq!(by_row.iter().map(|r| r.1).collect::<Vec<_>>(), lpm, "takes in row order");
        assert!(by_row.iter().zip(&takes).all(|(probe, take)| probe.0 < take.0), "{takes:?}");
        // filter: one fused bump per counter instance.
        let mut bumps: Vec<String> = (code.iter())
            .filter_map(|i| match *i {
                Instr::HashAdd { reg, .. } => Some(at(reg)),
                _ => None,
            })
            .collect();
        bumps.sort();
        assert_eq!(bumps, ["filter::vlan_ctr[0]", "filter::vlan_ctr[1]"]);
        // cache: the value read is indexed by the contracted `kv_idx` slot.
        let kv_reads: Vec<&Opnd> = (code.iter())
            .filter_map(|i| match i {
                Instr::RegToSlot { reg, cell, .. } if at(*reg) == "cache::kvs[0]" => Some(cell),
                _ => None,
            })
            .collect();
        assert!(matches!(kv_reads[..], [Opnd::S(14)]), "{kv_reads:?}");
        assert_eq!(sw.compiled.code.len(), 27);
    }
}
