//! The behavioral interpreter.
//!
//! [`Switch::build`] compiles a [`ConcreteProgram`] (the P4All compiler's
//! loop-free output) into slot-indexed actions, then executes packets stage
//! by stage with PISA semantics:
//!
//! - within a stage, an action's statements execute sequentially (the
//!   hash unit feeds the stateful ALU in-stage), while distinct actions
//!   never conflict inside a stage (the compiler's dependency constraints
//!   separate them), so stage-level concurrency is preserved;
//! - register state is persistent across packets and only accessible from
//!   the stage the register lives in (guaranteed by layout construction);
//! - a read-modify-write inside one action observes its own update (PISA
//!   stateful ALUs return the updated value).
//!
//! Hash functions: `hash(...)` destinations determine the salt, so the `i`
//! rows of a count-min sketch (writing `meta.index[0]`, `meta.index[1]`, …)
//! get independent hash functions, as on real hardware where each stage's
//! hash unit is seeded differently.

use std::fmt;
use std::sync::Arc;

use p4all_core::{ConcreteProgram, ConcreteRegister};
use p4all_lang::ast::{BinOp, Expr, LValue, Program, Size, Stmt, UnOp};

use crate::name_map::NameMap;
use crate::state::{mask, Phv, RegState, TableState};

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    UnknownField(String),
    UnknownRegister(String, usize),
    UnknownTable(String),
    /// An install's key has a number of words other than the table's key
    /// field count.
    KeyArity { table: String, expected: usize, got: usize },
    UnknownAction(String),
    IndexOutOfBounds { what: String, index: u64, len: usize },
    /// An install's action datum for a contract field (see
    /// [`Switch::install_contracts`]) at or past the length of a register
    /// the field indexes.
    DataOutOfRange { field: String, value: u64, limit: u64 },
    TableFull(String),
    BadProgram(String),
    DivByZero,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownField(n) => write!(f, "unknown field `{n}`"),
            SimError::UnknownRegister(n, i) => write!(f, "unknown register `{n}[{i}]`"),
            SimError::UnknownTable(n) => write!(f, "unknown table `{n}`"),
            SimError::KeyArity { table, expected, got } => {
                write!(f, "table `{table}` takes a {expected}-word key, not {got}")
            }
            SimError::UnknownAction(n) => write!(f, "unknown action `{n}`"),
            SimError::IndexOutOfBounds { what, index, len } => {
                write!(f, "{what}: index {index} out of bounds (len {len})")
            }
            SimError::DataOutOfRange { field, value, limit } => {
                let what = "indexes past a register of";
                write!(f, "action data `{field}` = {value} {what} {limit} cells")
            }
            SimError::TableFull(n) => write!(f, "table `{n}` is full"),
            SimError::BadProgram(m) => write!(f, "bad program: {m}"),
            SimError::DivByZero => write!(f, "division by zero in the data plane"),
        }
    }
}

impl std::error::Error for SimError {}

// ---------------------------------------------------------- compiled forms

/// Slot-resolved expression tree — the reference interpreter walks these;
/// the bytecode backend ([`crate::compiled`]) lowers them further into a
/// flat instruction stream.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Const(u64),
    Slot(usize),
    DynSlot { base: usize, count: usize, idx: Box<CExpr>, what: String },
    RegRead { reg: usize, cell: Box<CExpr> },
    Bin { op: BinOp, a: Box<CExpr>, b: Box<CExpr> },
    Not(Box<CExpr>),
    Neg(Box<CExpr>),
}

#[derive(Debug, Clone)]
pub(crate) enum CDst {
    Slot(usize),
    DynSlot { base: usize, count: usize, idx: CExpr, what: String },
    Reg { reg: usize, cell: CExpr },
}

#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Assign { dst: CDst, val: CExpr },
    Hash { dst: CDst, inputs: Vec<CExpr>, range: u64, salt: u64 },
    If { cond: CExpr, then_body: Vec<CStmt>, else_body: Vec<CStmt> },
}

#[derive(Debug, Clone)]
pub(crate) struct CAction {
    /// Retained for diagnostics when a stage faults.
    #[allow(dead_code)]
    pub(crate) label: String,
    pub(crate) guard: Option<CExpr>,
    pub(crate) body: Vec<CStmt>,
    /// For table applies: table name + compiled key expressions.
    pub(crate) table: Option<(String, Vec<CExpr>)>,
}

/// Which execution engine [`Switch::run_packet`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The tree-walking reference interpreter (the oracle).
    Interp,
    /// The flat bytecode engine (the default fast path).
    #[default]
    Compiled,
    /// Generated Rust compiled by the in-container `rustc` and loaded as
    /// a cdylib ([`crate::native`]): no dispatch loop at all. Prepared
    /// lazily on first packet, or explicitly via
    /// [`Switch::prepare_native`]. Sharded replay (`threads > 1`) always
    /// runs the bytecode engine; `stage_cost` is not attributed.
    Native,
}

// ------------------------------------------------------------- the switch

/// A behavioral switch executing one compiled program.
pub struct Switch {
    pub(crate) masks: Vec<u64>,
    /// Header fields occupy the first `header_count` PHV slots; the flow
    /// hash that shards traces across replay workers covers exactly them.
    pub(crate) header_count: usize,
    header_slots: NameMap<String, usize>,
    /// Scalar metadata field -> PHV slot. The interpreter's table entries
    /// share these names (`Arc` clones), as they share `table_actions`'.
    pub(crate) meta_scalars: NameMap<Arc<str>, usize>,
    meta_arrays: NameMap<String, (usize, usize)>,
    pub(crate) registers: Vec<RegState>,
    /// Register name -> index into `registers`, by instance.
    pub(crate) reg_index: NameMap<String, Vec<Option<usize>>>,
    /// Table name -> dense id (position in name order), the numbering
    /// all three engines and the control plane share.
    pub(crate) table_ids: NameMap<String, u16>,
    /// The interpreter's tables by dense id: entries keep their action and
    /// field *names*, resolved again on every packet — deliberately naive,
    /// so a wrong install-time resolution in `ctables` shows as a
    /// divergence from this oracle. The key → entry probe is `ctables`'
    /// own: each slot's tag names the entry here.
    pub(crate) tables: Vec<TableState>,
    /// Compiled bodies of actions invocable from tables.
    pub(crate) table_actions: NameMap<Arc<str>, Vec<CStmt>>,
    pub(crate) stages: Vec<Vec<CAction>>,
    /// The working PHV: the interpreter runs every stage on it in place.
    pub(crate) cur: Phv,
    /// The interpreter's table-key buffer, reused across applies.
    table_key: Vec<u64>,
    /// An install's resolved `(slot, value)` data, reused across installs.
    pub(crate) install_data: Vec<(u32, u64)>,
    // ---- bytecode backend state ----
    pub(crate) backend: Backend,
    pub(crate) compiled: crate::compiled::CompiledProgram,
    pub(crate) ctables: Vec<crate::flat_table::Table>,
    pub(crate) ctx: crate::compiled::ExecCtx,
    /// Register-write undo log for the current packet: on a per-packet
    /// fault every stage write is rolled back so a dropped packet leaves
    /// no trace in persistent state.
    pub(crate) undo: Vec<RegUndo>,
    /// Statements (interp) / instructions (compiled) executed, by stage,
    /// accumulated across packets; [`Switch::run_trace`] resets and
    /// reports it.
    pub(crate) stage_cost: Vec<u64>,
    /// Running statement counter backing `stage_cost` on the interp path.
    stmt_count: u64,
    /// Requested SoA batch width for trace replay (0 = scalar). See
    /// [`Switch::set_batch_width`].
    pub(crate) batch_width: usize,
    // ---- native backend state ----
    /// The loaded native pipeline, if [`Backend::Native`] has been
    /// prepared (lazily on first packet or via
    /// [`Switch::prepare_native`]).
    pub(crate) native: Option<crate::native::NativeEngine>,
}

/// One undone register write: `(register index, cell, previous value)`.
pub(crate) type RegUndo = (u32, u64, u64);

/// Undo every register write in `undo`, newest first — what makes a
/// faulting packet droppable without a trace in persistent state.
pub(crate) fn rollback(regs: &mut [RegState], undo: &mut Vec<RegUndo>) {
    while let Some((reg, cell, old)) = undo.pop() {
        regs[reg as usize].cells[cell as usize] = old;
    }
}

impl Switch {
    /// Compile a concrete program into an executable switch. `program` is
    /// the original AST (needed for the bodies of table actions).
    pub fn build(concrete: &ConcreteProgram, program: &Program) -> Result<Switch, SimError> {
        // ---- PHV layout ----
        let mut masks = Vec::new();
        let mut header_slots = NameMap::default();
        let mut meta_scalars = NameMap::default();
        let mut meta_arrays = NameMap::default();
        for (f, bits) in &concrete.headers {
            header_slots.insert(f.clone(), masks.len());
            masks.push(mask(*bits));
        }
        for m in &concrete.metadata {
            match m.count {
                None => {
                    meta_scalars.insert(Arc::from(m.name.as_str()), masks.len());
                    masks.push(mask(m.bits));
                }
                Some(n) => {
                    meta_arrays.insert(m.name.clone(), (masks.len(), n as usize));
                    for _ in 0..n {
                        masks.push(mask(m.bits));
                    }
                }
            }
        }

        // ---- Registers ----
        let mut registers = Vec::new();
        let mut reg_index: NameMap<String, Vec<Option<usize>>> = NameMap::default();
        for r in &concrete.registers {
            let ConcreteRegister { reg, instance, cells, elem_bits, stage } = r;
            let by_instance = reg_index.entry(reg.clone()).or_default();
            if by_instance.len() <= *instance {
                by_instance.resize(*instance + 1, None);
            }
            by_instance[*instance] = Some(registers.len());
            registers.push(RegState::new(reg.clone(), *instance, *stage, *elem_bits, *cells));
        }

        let mut sw = Switch {
            cur: Phv::new(masks.clone()),
            table_key: Vec::new(),
            install_data: Vec::new(),
            header_count: concrete.headers.len(),
            masks,
            header_slots,
            meta_scalars,
            meta_arrays,
            registers,
            reg_index,
            table_ids: NameMap::default(),
            tables: Vec::new(),
            table_actions: NameMap::default(),
            stages: Vec::new(),
            backend: Backend::default(),
            compiled: crate::compiled::CompiledProgram::default(),
            ctables: Vec::new(),
            ctx: crate::compiled::ExecCtx::default(),
            undo: Vec::new(),
            stage_cost: Vec::new(),
            stmt_count: 0,
            batch_width: 0,
            native: None,
        };

        // ---- Tables & their actions ----
        let mut by_name: Vec<&p4all_lang::ast::TableDecl> = concrete.tables.iter().collect();
        by_name.sort_by(|a, b| a.name.cmp(&b.name));
        for t in &by_name {
            sw.table_ids.insert(t.name.clone(), sw.tables.len() as u16);
            sw.tables.push(TableState::new(t.default_action.clone(), t.size));
            sw.ctables.push(crate::flat_table::Table::new(t.keys.len()));
        }
        for t in &concrete.tables {
            for aname in &t.actions {
                if sw.table_actions.contains_key(aname.as_str()) {
                    continue;
                }
                let decl = program
                    .action(aname)
                    .ok_or_else(|| SimError::UnknownAction(aname.clone()))?;
                if decl.indexed {
                    return Err(SimError::BadProgram(format!(
                        "table `{}` references indexed action `{aname}`",
                        t.name
                    )));
                }
                let body: Result<Vec<CStmt>, SimError> =
                    decl.body.iter().map(|s| sw.compile_stmt(s)).collect();
                sw.table_actions.insert(Arc::from(aname.as_str()), body?);
            }
        }

        // ---- Stage programs ----
        let mut stages = Vec::with_capacity(concrete.stages.len());
        for (stage_idx, stage) in concrete.stages.iter().enumerate() {
            let mut actions = Vec::with_capacity(stage.len());
            for a in stage {
                // PISA locality: an action may only touch registers that
                // live in its own stage. A violation here is a compiler
                // bug, caught before any packet runs.
                for r in action_registers(a) {
                    match concrete.registers.iter().find(|cr| cr.reg == r.0 && cr.instance == r.1) {
                        Some(cr) if cr.stage == stage_idx => {}
                        Some(cr) => {
                            return Err(SimError::BadProgram(format!(
                                "action `{}` in stage {stage_idx} accesses register                                  {}[{}] placed in stage {}",
                                a.label, r.0, r.1, cr.stage
                            )))
                        }
                        None => {
                            return Err(SimError::UnknownRegister(r.0, r.1));
                        }
                    }
                }
                let guard = match &a.guard {
                    Some(g) => Some(sw.compile_expr(g)?),
                    None => None,
                };
                let body: Result<Vec<CStmt>, SimError> =
                    a.stmts.iter().map(|s| sw.compile_stmt(s)).collect();
                let table = match &a.table {
                    Some(tname) => {
                        let decl = concrete
                            .tables
                            .iter()
                            .find(|t| &t.name == tname)
                            .ok_or_else(|| SimError::UnknownTable(tname.clone()))?;
                        let keys: Result<Vec<CExpr>, SimError> =
                            decl.keys.iter().map(|k| sw.compile_expr(k)).collect();
                        Some((tname.clone(), keys?))
                    }
                    None => None,
                };
                actions.push(CAction { label: a.label.clone(), guard, body: body?, table });
            }
            stages.push(actions);
        }
        sw.stages = stages;
        sw.stage_cost = vec![0; sw.stages.len()];
        let compiled = crate::compiled::lower(&sw);
        sw.ctx = crate::compiled::ExecCtx::for_program(&compiled);
        sw.compiled = compiled;
        Ok(sw)
    }

    /// Select the execution backend (the bytecode engine is the default;
    /// the tree-walking interpreter is the reference oracle).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// Currently selected execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Request SoA batch execution for [`Switch::run_trace`]: packets are
    /// gathered into `width`-lane column-major batches whose lanes the
    /// bytecode engine runs one after another, in trace order (the native
    /// backend instead amortizes FFI with a batched entry point). `0`
    /// (the default) and `1` select the scalar per-packet loop. Batched
    /// replay is bit-identical to scalar replay for every program; the
    /// interpreter has no batch mode (see
    /// [`SimStats::batch_width`](crate::SimStats) for what actually ran).
    pub fn set_batch_width(&mut self, width: usize) {
        self.batch_width = width;
    }

    /// Requested SoA batch width (0 = scalar).
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    // -------------------------------------------------------- compilation

    fn meta_slot(&self, field: &str, index: Option<&Expr>) -> Result<CExprOrDyn, SimError> {
        if let Some(&slot) = self.meta_scalars.get(field) {
            return match index {
                None => Ok(CExprOrDyn::Slot(slot)),
                Some(_) => Err(SimError::BadProgram(format!(
                    "scalar metadata `{field}` indexed like an array"
                ))),
            };
        }
        if let Some(&(base, count)) = self.meta_arrays.get(field) {
            return match index {
                Some(Expr::Int(i)) => {
                    if *i as usize >= count {
                        return Err(SimError::IndexOutOfBounds {
                            what: format!("meta.{field}"),
                            index: *i,
                            len: count,
                        });
                    }
                    Ok(CExprOrDyn::Slot(base + *i as usize))
                }
                Some(dynamic) => Ok(CExprOrDyn::Dyn {
                    base,
                    count,
                    idx: self.compile_expr(dynamic)?,
                    what: format!("meta.{field}"),
                }),
                None => Err(SimError::BadProgram(format!(
                    "metadata array `{field}` used without an index"
                ))),
            };
        }
        Err(SimError::UnknownField(format!("meta.{field}")))
    }

    fn compile_expr(&self, e: &Expr) -> Result<CExpr, SimError> {
        Ok(match e {
            Expr::Int(v) => CExpr::Const(*v),
            Expr::Float(_) => {
                return Err(SimError::BadProgram("float literal in data-plane expression".into()))
            }
            Expr::Symbolic(s) => {
                return Err(SimError::BadProgram(format!(
                    "unresolved symbolic `{s}` in concrete program"
                )))
            }
            Expr::IndexVar(s) => {
                return Err(SimError::BadProgram(format!("unresolved loop variable `{s}`")))
            }
            Expr::Meta { field, index } => match self.meta_slot(field, index.as_deref())? {
                CExprOrDyn::Slot(s) => CExpr::Slot(s),
                CExprOrDyn::Dyn { base, count, idx, what } => {
                    CExpr::DynSlot { base, count, idx: Box::new(idx), what }
                }
            },
            Expr::Header { field } => CExpr::Slot(
                *self
                    .header_slots
                    .get(field)
                    .ok_or_else(|| SimError::UnknownField(format!("hdr.{field}")))?,
            ),
            Expr::RegisterRead { reg, instance, cell } => {
                let inst = match instance.as_deref() {
                    None => 0,
                    Some(Expr::Int(i)) => *i as usize,
                    Some(_) => {
                        return Err(SimError::BadProgram(format!(
                            "register `{reg}` instance index not a constant"
                        )))
                    }
                };
                let idx = self.reg_idx(reg, inst)?;
                CExpr::RegRead { reg: idx, cell: Box::new(self.compile_expr(cell)?) }
            }
            Expr::Unary { op: UnOp::Not, operand } => {
                CExpr::Not(Box::new(self.compile_expr(operand)?))
            }
            Expr::Unary { op: UnOp::Neg, operand } => {
                CExpr::Neg(Box::new(self.compile_expr(operand)?))
            }
            Expr::Binary { op, lhs, rhs } => CExpr::Bin {
                op: *op,
                a: Box::new(self.compile_expr(lhs)?),
                b: Box::new(self.compile_expr(rhs)?),
            },
        })
    }

    fn compile_dst(&self, l: &LValue) -> Result<CDst, SimError> {
        Ok(match l {
            LValue::Meta { field, index } => match self.meta_slot(field, index.as_ref())? {
                CExprOrDyn::Slot(s) => CDst::Slot(s),
                CExprOrDyn::Dyn { base, count, idx, what } => {
                    CDst::DynSlot { base, count, idx, what }
                }
            },
            LValue::Header { field } => CDst::Slot(
                *self
                    .header_slots
                    .get(field)
                    .ok_or_else(|| SimError::UnknownField(format!("hdr.{field}")))?,
            ),
            LValue::Register { reg, instance, cell } => {
                let inst = match instance {
                    None => 0,
                    Some(Expr::Int(i)) => *i as usize,
                    Some(_) => {
                        return Err(SimError::BadProgram(format!(
                            "register `{reg}` instance index not a constant"
                        )))
                    }
                };
                let idx = self.reg_idx(reg, inst)?;
                CDst::Reg { reg: idx, cell: self.compile_expr(cell)? }
            }
        })
    }

    fn compile_stmt(&self, s: &Stmt) -> Result<CStmt, SimError> {
        Ok(match s {
            Stmt::Assign { lhs, rhs, .. } => {
                CStmt::Assign { dst: self.compile_dst(lhs)?, val: self.compile_expr(rhs)? }
            }
            Stmt::HashAssign { lhs, inputs, range, .. } => {
                let range = match range {
                    Size::Const(k) => *k,
                    Size::Symbolic(v) => {
                        return Err(SimError::BadProgram(format!(
                            "unresolved hash range symbolic `{v}`"
                        )))
                    }
                };
                if range == 0 {
                    return Err(SimError::BadProgram("hash range of zero".into()));
                }
                let dst = self.compile_dst(lhs)?;
                let salt = match &dst {
                    CDst::Slot(s) => 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(*s as u64 + 1),
                    CDst::DynSlot { base, .. } => {
                        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(*base as u64 + 1)
                    }
                    CDst::Reg { reg, .. } => {
                        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(*reg as u64 + 0x51)
                    }
                };
                let inputs: Result<Vec<CExpr>, SimError> =
                    inputs.iter().map(|e| self.compile_expr(e)).collect();
                CStmt::Hash { dst, inputs: inputs?, range, salt }
            }
            Stmt::If { cond, then_body, else_body, .. } => CStmt::If {
                cond: self.compile_expr(cond)?,
                then_body: then_body.iter().map(|t| self.compile_stmt(t)).collect::<Result<_, _>>()?,
                else_body: else_body.iter().map(|t| self.compile_stmt(t)).collect::<Result<_, _>>()?,
            },
            other => {
                return Err(SimError::BadProgram(format!(
                    "statement not executable in a concrete action: {other:?}"
                )))
            }
        })
    }

    // ---------------------------------------------------------- execution

    /// Reset the working PHV for a new packet.
    pub fn begin_packet(&mut self) {
        self.cur.clear();
        self.undo.clear();
    }

    /// Reset all packet-plane state — registers, working PHVs, cost
    /// counters — leaving the compiled program, backend selection, and
    /// control-plane-installed table entries in place. After a reset the
    /// switch behaves as freshly built; harnesses that replay many traces
    /// against one program (e.g. the fuzz oracle) reset instead of
    /// rebuilding.
    pub fn reset(&mut self) {
        for r in &mut self.registers {
            r.clear();
        }
        self.cur.clear();
        self.undo.clear();
        self.stage_cost.iter_mut().for_each(|c| *c = 0);
        self.stmt_count = 0;
        self.ctx.temps.iter_mut().for_each(|t| *t = 0);
        self.ctx.keys.clear();
    }

    /// Set a header field on the working PHV.
    pub fn set_header(&mut self, field: &str, value: u64) -> Result<(), SimError> {
        let slot = *self
            .header_slots
            .get(field)
            .ok_or_else(|| SimError::UnknownField(format!("hdr.{field}")))?;
        self.cur.set(slot, value);
        Ok(())
    }

    /// Run the working PHV through every stage with the selected backend.
    ///
    /// On a per-packet fault (`DivByZero`, `IndexOutOfBounds`, …) every
    /// register write the packet performed is rolled back before the error
    /// returns: a faulting packet is droppable without corrupting
    /// persistent state ([`Switch::run_trace`] counts it as dropped).
    pub fn run_packet(&mut self) -> Result<(), SimError> {
        self.undo.clear();
        let result = match self.backend {
            Backend::Interp => self.run_packet_interp(),
            Backend::Compiled => self.run_packet_compiled(),
            Backend::Native => self.run_packet_native(),
        };
        if result.is_err() {
            rollback(&mut self.registers, &mut self.undo);
        }
        result
    }

    fn run_packet_compiled(&mut self) -> Result<(), SimError> {
        crate::compiled::run_packet(
            &self.compiled,
            &self.ctables,
            &mut self.registers,
            &mut self.cur,
            &mut self.ctx,
            &mut self.undo,
            &mut self.stage_cost,
        )
    }

    fn run_packet_interp(&mut self) -> Result<(), SimError> {
        for s in 0..self.stages.len() {
            // We need split borrows: temporarily move the stage program out.
            let actions = std::mem::take(&mut self.stages[s]);
            let before = self.stmt_count;
            let mut result = Ok(());
            for a in &actions {
                if let Some(g) = &a.guard {
                    match self.eval(g) {
                        Ok(0) => continue,
                        Ok(_) => {}
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                if let Some((tname, keys)) = &a.table {
                    if let Err(e) = self.apply_table(tname, keys) {
                        result = Err(e);
                        break;
                    }
                }
                if let Err(e) = self.exec_block(&a.body) {
                    result = Err(e);
                    break;
                }
            }
            self.stages[s] = actions;
            self.stage_cost[s] += self.stmt_count - before;
            result?;
        }
        Ok(())
    }

    fn apply_table(&mut self, tname: &str, keys: &[CExpr]) -> Result<(), SimError> {
        // Split borrows, as for the stage program: the matched body is
        // read while it runs, so the bodies and the key buffer move out.
        let bodies = std::mem::take(&mut self.table_actions);
        let mut kv = std::mem::take(&mut self.table_key);
        let result = match self.match_entry(&bodies, tname, keys, &mut kv) {
            Ok(Some(body)) => self.exec_block(body),
            Ok(None) => Ok(()), // no-op miss
            Err(e) => Err(e),
        };
        self.table_actions = bodies;
        self.table_key = kv;
        result
    }

    /// Evaluate `keys` into `kv`, find the entry through the flat table's
    /// tag, write its action data by field name, and return the body of
    /// its action, found by name. Errors come in the order
    /// key evaluation, unknown table, unknown field, unknown action.
    fn match_entry<'b>(
        &mut self,
        bodies: &'b NameMap<Arc<str>, Vec<CStmt>>,
        tname: &str,
        keys: &[CExpr],
        kv: &mut Vec<u64>,
    ) -> Result<Option<&'b [CStmt]>, SimError> {
        kv.clear();
        for k in keys {
            kv.push(self.eval(k)?);
        }
        let tid = self.table_id(tname)?;
        let table = &self.tables[tid];
        let (action, data): (&str, &[(Arc<str>, u64)]) = match self.ctables[tid].tag(kv) {
            Some(tag) => {
                let e = table.get(tag);
                (&e.action, &e.data)
            }
            None => match &table.default_action {
                Some(a) => (a, &[]),
                None => return Ok(None),
            },
        };
        // Action data writes (modelled action parameters).
        for (field, value) in data {
            let slot = self
                .meta_scalars
                .get(&**field)
                .copied()
                .ok_or_else(|| SimError::UnknownField(format!("meta.{field}")))?;
            self.cur.set(slot, *value);
        }
        let body = bodies.get(action).ok_or_else(|| SimError::UnknownAction(action.to_string()))?;
        Ok(Some(body))
    }

    fn exec_block(&mut self, body: &[CStmt]) -> Result<(), SimError> {
        for s in body {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &CStmt) -> Result<(), SimError> {
        self.stmt_count += 1;
        match s {
            CStmt::Assign { dst, val } => {
                let v = self.eval(val)?;
                self.write_dst(dst, v)
            }
            CStmt::Hash { dst, inputs, range, salt } => {
                let mut h = splitmix(*salt);
                for i in inputs {
                    h = splitmix(h ^ self.eval(i)?);
                }
                self.write_dst(dst, h % range)
            }
            CStmt::If { cond, then_body, else_body } => {
                if self.eval(cond)? != 0 {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                }
            }
        }
    }

    fn write_dst(&mut self, dst: &CDst, v: u64) -> Result<(), SimError> {
        match dst {
            CDst::Slot(s) => {
                self.cur.set(*s, v);
                Ok(())
            }
            CDst::DynSlot { base, count, idx, what } => {
                let i = self.eval(idx)? as usize;
                if i >= *count {
                    return Err(SimError::IndexOutOfBounds {
                        what: what.clone(),
                        index: i as u64,
                        len: *count,
                    });
                }
                self.cur.set(base + i, v);
                Ok(())
            }
            CDst::Reg { reg, cell } => {
                let c = self.eval(cell)? as usize;
                let r = &mut self.registers[*reg];
                if c >= r.cells.len() {
                    return Err(SimError::IndexOutOfBounds {
                        what: format!("{}[{}]", r.reg, r.instance),
                        index: c as u64,
                        len: r.cells.len(),
                    });
                }
                self.undo.push((*reg as u32, c as u64, r.cells[c]));
                r.cells[c] = v & r.elem_mask;
                Ok(())
            }
        }
    }

    fn eval(&self, e: &CExpr) -> Result<u64, SimError> {
        Ok(match e {
            CExpr::Const(v) => *v,
            // Reads and writes go to the one working PHV: statements
            // *within* one action therefore see the action's own earlier
            // writes (the hash unit feeds the stateful ALU inside a stage),
            // while cross-action visibility inside a stage cannot arise
            // because the dependency analysis places conflicting actions in
            // different stages. So a per-stage input snapshot would be read
            // by nobody, and there is none.
            CExpr::Slot(s) => self.cur.get(*s),
            CExpr::DynSlot { base, count, idx, what } => {
                let i = self.eval(idx)? as usize;
                if i >= *count {
                    return Err(SimError::IndexOutOfBounds {
                        what: what.clone(),
                        index: i as u64,
                        len: *count,
                    });
                }
                self.cur.get(base + i)
            }
            CExpr::RegRead { reg, cell } => {
                let c = self.eval(cell)? as usize;
                let r = &self.registers[*reg];
                if c >= r.cells.len() {
                    return Err(SimError::IndexOutOfBounds {
                        what: format!("{}[{}]", r.reg, r.instance),
                        index: c as u64,
                        len: r.cells.len(),
                    });
                }
                r.cells[c]
            }
            CExpr::Not(a) => (self.eval(a)? == 0) as u64,
            CExpr::Neg(a) => self.eval(a)?.wrapping_neg(),
            CExpr::Bin { op, a, b } => {
                let x = self.eval(a)?;
                let y = self.eval(b)?;
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(SimError::DivByZero);
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
                }
            }
        })
    }

    // -------------------------------------------------------- observation

    /// Read a metadata scalar from the working PHV (after `run_packet`).
    pub fn meta(&self, field: &str) -> Result<u64, SimError> {
        let slot = *self
            .meta_scalars
            .get(field)
            .ok_or_else(|| SimError::UnknownField(format!("meta.{field}")))?;
        Ok(self.cur.get(slot))
    }

    /// Read one element of a metadata array from the working PHV.
    pub fn meta_elem(&self, field: &str, i: usize) -> Result<u64, SimError> {
        let &(base, count) = self
            .meta_arrays
            .get(field)
            .ok_or_else(|| SimError::UnknownField(format!("meta.{field}")))?;
        if i >= count {
            return Err(SimError::IndexOutOfBounds {
                what: format!("meta.{field}"),
                index: i as u64,
                len: count,
            });
        }
        Ok(self.cur.get(base + i))
    }

    /// Read a header field from the working PHV.
    pub fn header(&self, field: &str) -> Result<u64, SimError> {
        let slot = *self
            .header_slots
            .get(field)
            .ok_or_else(|| SimError::UnknownField(format!("hdr.{field}")))?;
        Ok(self.cur.get(slot))
    }

    /// Header field names in slot order — what a trace generator needs to
    /// synthesize input packets for [`Switch::run_trace`].
    pub fn header_fields(&self) -> Vec<String> {
        let mut fields: Vec<(usize, &String)> =
            self.header_slots.iter().map(|(name, &slot)| (slot, name)).collect();
        fields.sort();
        fields.into_iter().map(|(_, name)| name.clone()).collect()
    }

    /// Total PHV bits modelled (diagnostics).
    pub fn phv_slots(&self) -> usize {
        self.masks.len()
    }

    /// Pipeline stage count.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The full working PHV after `run_packet` — slot-for-slot, for
    /// differential testing of backends.
    pub fn phv_snapshot(&self) -> Vec<u64> {
        self.cur.slots.clone()
    }

    /// Disassembly of the bytecode program, one section per stage — what
    /// the compiled backend actually executes per packet (diagnostics).
    pub fn dump_bytecode(&self) -> String {
        crate::compiled::disasm(&self.compiled)
    }

    /// Every register instance as `(name, instance, stage, cells)`, in
    /// placement order — the observable persistent state, for
    /// differential testing and golden-trace dumps.
    pub fn registers_snapshot(&self) -> Vec<(String, usize, usize, Vec<u64>)> {
        self.registers
            .iter()
            .map(|r| (r.reg.clone(), r.instance, r.stage, r.cells.clone()))
            .collect()
    }

    /// Build a full-layout input PHV for [`Switch::run_trace`]: the named
    /// header fields are set (width-masked), everything else is zero.
    pub fn make_packet(&self, fields: &[(&str, u64)]) -> Result<Phv, SimError> {
        let mut phv = Phv::new(self.masks.clone());
        for (f, v) in fields {
            let slot = *self
                .header_slots
                .get(*f)
                .ok_or_else(|| SimError::UnknownField(format!("hdr.{f}")))?;
            phv.set(slot, *v);
        }
        Ok(phv)
    }

    pub(crate) fn reg_idx(&self, reg: &str, instance: usize) -> Result<usize, SimError> {
        self.reg_index
            .get(reg)
            .and_then(|by_instance| by_instance.get(instance).copied().flatten())
            .ok_or_else(|| SimError::UnknownRegister(reg.to_string(), instance))
    }

    /// Dense id of `table`: its index in `tables` and `ctables`.
    pub(crate) fn table_id(&self, table: &str) -> Result<usize, SimError> {
        self.table_ids
            .get(table)
            .map(|&id| id as usize)
            .ok_or_else(|| SimError::UnknownTable(table.to_string()))
    }
}

enum CExprOrDyn {
    Slot(usize),
    Dyn { base: usize, count: usize, idx: CExpr, what: String },
}

/// `(register, instance)` pairs an action touches (guard + body).
fn action_registers(a: &p4all_core::ConcreteAction) -> Vec<(String, usize)> {
    fn expr_regs(e: &Expr, out: &mut Vec<(String, usize)>) {
        match e {
            Expr::RegisterRead { reg, instance, cell } => {
                let inst = match instance.as_deref() {
                    Some(Expr::Int(i)) => *i as usize,
                    _ => 0,
                };
                out.push((reg.clone(), inst));
                expr_regs(cell, out);
            }
            Expr::Unary { operand, .. } => expr_regs(operand, out),
            Expr::Binary { lhs, rhs, .. } => {
                expr_regs(lhs, out);
                expr_regs(rhs, out);
            }
            Expr::Meta { index: Some(i), .. } => expr_regs(i, out),
            _ => {}
        }
    }
    fn stmt_regs(s: &Stmt, out: &mut Vec<(String, usize)>) {
        match s {
            Stmt::Assign { lhs, rhs, .. } => {
                if let LValue::Register { reg, instance, cell } = lhs {
                    let inst = match instance {
                        Some(Expr::Int(i)) => *i as usize,
                        _ => 0,
                    };
                    out.push((reg.clone(), inst));
                    expr_regs(cell, out);
                }
                expr_regs(rhs, out);
            }
            Stmt::HashAssign { lhs, inputs, .. } => {
                if let LValue::Register { reg, instance, cell } = lhs {
                    let inst = match instance {
                        Some(Expr::Int(i)) => *i as usize,
                        _ => 0,
                    };
                    out.push((reg.clone(), inst));
                    expr_regs(cell, out);
                }
                for i in inputs {
                    expr_regs(i, out);
                }
            }
            Stmt::If { cond, then_body, else_body, .. } => {
                expr_regs(cond, out);
                for t in then_body.iter().chain(else_body) {
                    stmt_regs(t, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    if let Some(g) = &a.guard {
        expr_regs(g, &mut out);
    }
    for s in &a.stmts {
        stmt_regs(s, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

/// SplitMix64 finalizer — the simulator's hash primitive, shared by both
/// backends (and by the replay engine's flow-sharding hash).
#[inline(always)]
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4all_core::Compiler;
    use p4all_pisa::presets;

    const CMS: &str = r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= 2 && rows <= 2;
        assume cols >= 4;
        optimize rows * cols;
        header h { bit<32> key; }
        struct metadata {
            bit<32>[rows] index;
            bit<32>[rows] count;
            bit<32> min;
        }
        register<bit<32>>[cols][rows] cms;
        action start_min()[int i] { meta.min = meta.count[i]; }
        action incr()[int i] {
            meta.index[i] = hash(hdr.key, cols);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
            meta.count[i] = cms[i][meta.index[i]];
        }
        action set_min()[int i] {
            meta.min = meta.count[i];
        }
        control hash_inc() { apply { for (i < rows) { incr()[i]; } } }
        control find_min() {
            apply {
                for (i < rows) {
                    if (meta.count[i] < meta.min || meta.min == 0) { set_min()[i]; }
                }
            }
        }
        control Main() { apply { hash_inc.apply(); find_min.apply(); } }
    "#;

    fn build_cms() -> (Switch, u64) {
        let target = presets::paper_eval(1 << 14); // 16 Kb per stage
        let c = Compiler::new(target).compile(CMS).unwrap();
        let program = p4all_lang::parse(CMS).unwrap();
        let cols = c.layout.symbol_values["cols"];
        (Switch::build(&c.concrete, &program).unwrap(), cols)
    }

    #[test]
    fn cms_counts_single_key() {
        let (mut sw, _) = build_cms();
        for _ in 0..5 {
            sw.begin_packet();
            sw.set_header("key", 42).unwrap();
            sw.run_packet().unwrap();
        }
        // After 5 packets of the same key, the min estimate is 5.
        assert_eq!(sw.meta("min").unwrap(), 5);
    }

    #[test]
    fn cms_estimate_is_at_least_true_count() {
        let (mut sw, _) = build_cms();
        let mut true_counts = std::collections::BTreeMap::new();
        // 300 packets over 20 keys.
        for p in 0..300u64 {
            let key = p % 20;
            *true_counts.entry(key).or_insert(0u64) += 1;
            sw.begin_packet();
            sw.set_header("key", key).unwrap();
            sw.run_packet().unwrap();
        }
        // Query each key once more and compare the estimate (which includes
        // the query packet's own increment).
        for (key, count) in true_counts {
            sw.begin_packet();
            sw.set_header("key", key).unwrap();
            sw.run_packet().unwrap();
            let est = sw.meta("min").unwrap();
            assert!(
                est > count,
                "CMS under-estimated key {key}: est {est} < true {count}+1"
            );
        }
    }

    #[test]
    fn different_rows_use_different_hashes() {
        let (mut sw, cols) = build_cms();
        assert!(cols >= 4);
        let mut same = 0;
        let mut total = 0;
        for key in 0..50u64 {
            sw.begin_packet();
            sw.set_header("key", key).unwrap();
            sw.run_packet().unwrap();
            let i0 = sw.meta_elem("index", 0).unwrap();
            let i1 = sw.meta_elem("index", 1).unwrap();
            total += 1;
            if i0 == i1 {
                same += 1;
            }
        }
        assert!(
            same < total / 2,
            "row hashes look identical: {same}/{total} collisions"
        );
    }

    #[test]
    fn stage_snapshot_semantics() {
        // Two actions in (potentially) the same stage must both read the
        // stage input: b = a must read the *old* a even if a is updated in
        // the same stage. Here the compiler serializes them (dependency),
        // so instead check the end-to-end dataflow result.
        let src = r#"
            header h { bit<32> x; }
            struct metadata { bit<32> a; bit<32> b; }
            control Main() {
                apply {
                    meta.a = hdr.x + 1;
                    meta.b = meta.a + 1;
                }
            }
        "#;
        let c = Compiler::new(presets::paper_example()).compile(src).unwrap();
        let program = p4all_lang::parse(src).unwrap();
        let mut sw = Switch::build(&c.concrete, &program).unwrap();
        sw.begin_packet();
        sw.set_header("x", 10).unwrap();
        sw.run_packet().unwrap();
        assert_eq!(sw.meta("a").unwrap(), 11);
        assert_eq!(sw.meta("b").unwrap(), 12);
    }

    #[test]
    fn field_width_truncation() {
        let src = r#"
            header h { bit<32> x; }
            struct metadata { bit<8> small; }
            control Main() { apply { meta.small = hdr.x + 1; } }
        "#;
        let c = Compiler::new(presets::paper_example()).compile(src).unwrap();
        let program = p4all_lang::parse(src).unwrap();
        let mut sw = Switch::build(&c.concrete, &program).unwrap();
        sw.begin_packet();
        sw.set_header("x", 0x1FF).unwrap();
        sw.run_packet().unwrap();
        assert_eq!(sw.meta("small").unwrap(), 0x00); // 0x1FF+1 = 0x200 -> low 8 bits
    }

    #[test]
    fn registers_persist_across_packets() {
        let src = r#"
            header h { bit<32> x; }
            struct metadata { bit<32> seen; }
            register<bit<32>>[4] counter;
            action tally() {
                counter[0] = counter[0] + 1;
                meta.seen = counter[0];
            }
            control Main() { apply { tally(); } }
        "#;
        let c = Compiler::new(presets::paper_example()).compile(src).unwrap();
        let program = p4all_lang::parse(src).unwrap();
        let mut sw = Switch::build(&c.concrete, &program).unwrap();
        for i in 1..=7u64 {
            sw.begin_packet();
            sw.set_header("x", 0).unwrap();
            sw.run_packet().unwrap();
            assert_eq!(sw.meta("seen").unwrap(), i);
        }
    }
}

#[cfg(test)]
mod locality_tests {
    use super::*;
    use p4all_core::Compiler;
    use p4all_pisa::presets;

    /// Hand-corrupt a compiled program so an action sits in a different
    /// stage than its register: the builder must refuse it.
    #[test]
    fn stage_locality_violation_rejected() {
        let src = r#"
            header pkt { bit<32> key; }
            struct metadata { bit<32> seen; }
            register<bit<32>>[8] ctr;
            action tally() {
                ctr[0] = ctr[0] + 1;
                meta.seen = ctr[0];
            }
            control Main() { apply { tally(); } }
        "#;
        let c = Compiler::new(presets::paper_example()).compile(src).unwrap();
        let program = p4all_lang::parse(src).unwrap();
        // Sanity: the honest program builds.
        Switch::build(&c.concrete, &program).unwrap();
        // Corrupt: move the register one stage later than its action.
        let mut broken = c.concrete.clone();
        let reg_stage = broken.registers[0].stage;
        broken.registers[0].stage = reg_stage + 1;
        match Switch::build(&broken, &program) {
            Err(SimError::BadProgram(msg)) => {
                assert!(msg.contains("stage"), "unexpected message: {msg}");
            }
            Err(other) => panic!("expected stage-locality rejection, got {other:?}"),
            Ok(_) => panic!("corrupted program must not build"),
        }
    }
}
