//! Native-code lowering: a built [`Switch`] becomes standalone Rust source.
//!
//! The third execution engine. Where [`crate::compiled`] lowers the
//! per-stage statement trees into flat bytecode and pays a dispatch
//! branch per instruction, this module prints the same trees as
//! *monomorphized Rust*: one free function per stage, one per
//! table-invocable action, every PHV slot a compile-time index into a
//! fixed-width `[u64; N]`, every field mask and hash salt a literal, and
//! the CMS/Bloom/min-fold idioms emitted as straight-line statements the
//! downstream `rustc -C opt-level=3` can fold, unroll, and register-
//! allocate with full knowledge of the concrete layout. The source is
//! compiled by [`crate::native`] into a cdylib and driven through a tiny
//! C ABI (`p4n_*`).
//!
//! Semantics contract (held to the interpreter by the four-way fuzz
//! oracle and the golden/contract suites):
//!
//! * Execution is in place on a single PHV buffer, as in the
//!   interpreter: stage-local register ownership is enforced at build
//!   time and reads within a stage see the stage's own earlier writes.
//! * Every operand of a binary op is always evaluated, left first
//!   (`&`/`|` on bools, never `&&`/`||`). Impure subexpressions —
//!   dynamic slot reads, register reads, division — materialize into
//!   temporaries in source order; pure leaves fold inline, which is
//!   unobservable because expression evaluation never writes the PHV.
//! * Faults carry a 4-word record (code, a, b, c) back across the ABI,
//!   and a dropped packet leaves no trace. The generated `State` keeps
//!   its own register undo log and rolls back before returning, except
//!   where the bytecode's build-time scan proved that no fault can
//!   follow a register write (`CompiledProgram::undo_log`): then no
//!   write is logged, since a faulting packet has written nothing.
//! * Table and action ids reuse the bytecode backend's sorted-by-name
//!   dense numbering, and the table store is the bytecode engine's own
//!   `flat_table.rs`, pasted in verbatim: the host forwards one
//!   pre-resolved install to both engines.
//!
//! Generation is deterministic: two lowerings of the same `Switch`
//! produce byte-identical source (asserted by `tests/native_backend.rs`).
//! The output is dependency-free — `std` only, no external crates — by
//! design: the build environment has no route to crates.io, so the
//! generated crate must compile with a bare `rustc` invocation.

use p4all_lang::ast::BinOp;

use crate::compiled::DefaultAction;
use crate::interp::{splitmix, CDst, CExpr, CStmt, Switch};
use crate::name_map::NameMap;

/// The lowering product: source text plus the side tables the host needs
/// to reconstruct exact [`crate::SimError`] values from fault records.
pub(crate) struct Generated {
    pub source: String,
    /// Diagnostic strings for dynamic-slot bounds faults, indexed by the
    /// diag id baked into `f_dyn` calls.
    pub diags: Vec<String>,
}

/// The table store both fast engines share, embedded as source text.
const FLAT_TABLE: &str = include_str!("flat_table.rs");

/// Lower `sw` into a self-contained Rust crate exposing the `p4n_*` ABI.
pub(crate) fn generate(sw: &Switch) -> Generated {
    let mut g = Gen {
        sw,
        src: String::new(),
        indent: 0,
        tmp: 0,
        diags: Vec::new(),
        diag_ids: NameMap::default(),
    };
    g.emit_prelude();
    g.emit_actions();
    g.emit_stages();
    g.emit_abi();
    Generated { source: g.src, diags: g.diags }
}

struct Gen<'a> {
    sw: &'a Switch,
    src: String,
    indent: usize,
    /// Per-function temporary counter (reset at each function head).
    tmp: usize,
    diags: Vec<String>,
    diag_ids: NameMap<String, usize>,
}

impl<'a> Gen<'a> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.src.push_str("    ");
        }
        self.src.push_str(s);
        self.src.push('\n');
    }

    fn blank(&mut self) {
        self.src.push('\n');
    }

    fn tmp(&mut self) -> String {
        let t = self.tmp;
        self.tmp += 1;
        format!("t{t}")
    }

    fn diag(&mut self, what: &str) -> usize {
        if let Some(&id) = self.diag_ids.get(what) {
            return id;
        }
        let id = self.diags.len();
        self.diags.push(what.to_string());
        self.diag_ids.insert(what.to_string(), id);
        id
    }

    /// Dense table/action ids shared with the bytecode backend.
    fn table_id(&self, name: &str) -> usize {
        self.sw.table_ids[name] as usize
    }

    /// Action names in dense-id order (the bytecode backend's numbering).
    fn actions_by_id(&self) -> Vec<(u32, String)> {
        let mut v: Vec<(u32, String)> =
            self.sw.compiled.action_ids.iter().map(|(n, &id)| (id, n.to_string())).collect();
        v.sort();
        v
    }

    // ------------------------------------------------------- prelude

    fn emit_prelude(&mut self) {
        let n = self.sw.masks.len();
        let t = self.sw.compiled.tables.len();
        let r = self.sw.registers.len();

        self.line("//! Generated by p4all-sim native codegen — do not edit.");
        self.line("#![allow(dead_code, unused_variables, unused_mut)]");
        self.blank();
        self.line(&format!("const PHV_LEN: usize = {n};"));
        let masks: Vec<String> =
            self.sw.masks.iter().map(|m| format!("{m:#x}")).collect();
        self.line(&format!("static MASKS: [u64; PHV_LEN] = [{}];", masks.join(", ")));
        self.blank();
        self.line("type Phv = [u64; PHV_LEN];");
        self.line("type Undo = Vec<(u32, u64, u64)>;");
        self.blank();

        // Register window: one fixed-length mutable view per instance.
        if r == 0 {
            self.line("struct Regs<'a> {");
            self.line("    _lt: std::marker::PhantomData<&'a ()>,");
            self.line("}");
        } else {
            self.line("struct Regs<'a> {");
            for (i, reg) in self.sw.registers.iter().enumerate() {
                self.line(&format!("    r{i}: &'a mut [u64; {}],", reg.cells.len()));
            }
            self.line("}");
        }
        self.blank();

        self.line("struct Fault { code: u64, a: u64, b: u64, c: u64 }");
        self.blank();
        self.line("#[cold]");
        self.line("fn f_div() -> Fault { Fault { code: 1, a: 0, b: 0, c: 0 } }");
        self.line("#[cold]");
        self.line("fn f_dyn(diag: u64, idx: u64, len: u64) -> Fault { Fault { code: 2, a: diag, b: idx, c: len } }");
        self.line("#[cold]");
        self.line("fn f_reg(reg: u64, idx: u64, len: u64) -> Fault { Fault { code: 3, a: reg, b: idx, c: len } }");
        self.line("#[cold]");
        self.line("fn f_action(table: u64) -> Fault { Fault { code: 4, a: table, b: 0, c: 0 } }");
        self.blank();

        self.line("#[inline(always)]");
        self.line("fn splitmix(mut z: u64) -> u64 {");
        self.line("    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);");
        self.line("    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);");
        self.line("    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);");
        self.line("    z ^ (z >> 31)");
        self.line("}");
        self.blank();

        // The table store is not printed but pasted: one implementation,
        // unit-tested where it lives.
        self.line("mod flat_table {");
        self.src.push_str(FLAT_TABLE);
        self.line("}");
        self.line("use flat_table::{Entry, Table};");
        self.blank();
        self.line(&format!("const TABLE_COUNT: usize = {t};"));
        self.blank();
        self.line("pub struct State {");
        self.line("    tables: [Table; TABLE_COUNT],");
        self.line("    undo: Undo,");
        self.line("}");
        self.blank();

        self.line("fn rollback(regs: &mut Regs, undo: &mut Undo) {");
        self.line("    while let Some((r, c, old)) = undo.pop() {");
        self.line("        match r {");
        for i in 0..r {
            self.line(&format!("            {i}u32 => regs.r{i}[c as usize] = old,"));
        }
        self.line("            _ => {}");
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.blank();
    }

    // ------------------------------------------------- actions/stages

    fn emit_actions(&mut self) {
        for (id, name) in self.actions_by_id() {
            let body = self.sw.table_actions[name.as_str()].clone();
            self.tmp = 0;
            self.line(&format!("// table action `{name}`"));
            self.line(&format!(
                "fn action_{id}(phv: &mut Phv, regs: &mut Regs, undo: &mut Undo) -> Result<(), Fault> {{"
            ));
            self.indent += 1;
            for s in &body {
                self.stmt(s);
            }
            self.line("Ok(())");
            self.indent -= 1;
            self.line("}");
            self.blank();
        }
    }

    fn emit_stages(&mut self) {
        let stage_count = self.sw.stages.len();
        for s in 0..stage_count {
            let actions = self.sw.stages[s].clone();
            self.tmp = 0;
            self.line(&format!(
                "fn stage_{s}(phv: &mut Phv, regs: &mut Regs, tables: &[Table; TABLE_COUNT], undo: &mut Undo) -> Result<(), Fault> {{"
            ));
            self.indent += 1;
            for a in &actions {
                self.line(&format!("// {}", a.label));
                let guarded = a.guard.is_some();
                if let Some(g) = &a.guard {
                    let gv = self.expr(g);
                    self.line(&format!("if ({gv}) != 0 {{"));
                    self.indent += 1;
                }
                if let Some((tname, keys)) = &a.table {
                    self.emit_apply(tname, keys);
                }
                for st in &a.body {
                    self.stmt(st);
                }
                if guarded {
                    self.indent -= 1;
                    self.line("}");
                }
            }
            self.line("Ok(())");
            self.indent -= 1;
            self.line("}");
            self.blank();
        }

        self.line("fn run(phv: &mut Phv, regs: &mut Regs, tables: &[Table; TABLE_COUNT], undo: &mut Undo) -> Result<(), Fault> {");
        self.indent += 1;
        for s in 0..stage_count {
            self.line(&format!("stage_{s}(phv, regs, tables, undo)?;"));
        }
        self.line("Ok(())");
        self.indent -= 1;
        self.line("}");
        self.blank();
    }

    fn emit_apply(&mut self, tname: &str, keys: &[CExpr]) {
        let tid = self.table_id(tname);
        let mut kvals = Vec::with_capacity(keys.len());
        for k in keys {
            kvals.push(self.expr(k));
        }
        let kt = self.tmp();
        self.line(&format!(
            "let {kt}: [u64; {}] = [{}];",
            keys.len(),
            kvals.join(", ")
        ));
        self.line(&format!("if let Some(e) = tables[{tid}].lookup(&{kt}) {{"));
        self.indent += 1;
        self.line("for &(s, v) in e.data.iter() {");
        self.line("    let s = s as usize;");
        self.line("    phv[s] = v & MASKS[s];");
        self.line("}");
        self.line("match e.action {");
        self.indent += 1;
        for (id, _) in self.actions_by_id() {
            self.line(&format!("{id}u32 => action_{id}(phv, regs, undo)?,"));
        }
        self.line("_ => {}");
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        match &self.sw.compiled.tables[tid].default_action {
            DefaultAction::None => self.line("}"),
            DefaultAction::Run(id) => {
                let id = *id;
                self.line("} else {");
                self.line(&format!("    action_{id}(phv, regs, undo)?;"));
                self.line("}");
            }
            DefaultAction::Unknown(_) => {
                self.line("} else {");
                self.line(&format!("    return Err(f_action({tid}));"));
                self.line("}");
            }
        }
    }

    // ----------------------------------------------------- statements

    fn stmt(&mut self, s: &CStmt) {
        match s {
            CStmt::Assign { dst, val } => {
                // Value before destination index, like the interpreter.
                let v = self.expr(val);
                self.store(dst, &v);
            }
            CStmt::Hash { dst, inputs, range, salt } => {
                let h = self.tmp();
                // The salt's first mix round is a compile-time constant.
                self.line(&format!("let mut {h} = {:#x}u64;", splitmix(*salt)));
                for i in inputs {
                    let iv = self.expr(i);
                    self.line(&format!("{h} = splitmix({h} ^ ({iv}));"));
                }
                self.store(dst, &format!("({h} % {range}u64)"));
            }
            CStmt::If { cond, then_body, else_body } => {
                let cv = self.expr(cond);
                self.line(&format!("if ({cv}) != 0 {{"));
                self.indent += 1;
                for t in then_body {
                    self.stmt(t);
                }
                self.indent -= 1;
                if else_body.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    for t in else_body {
                        self.stmt(t);
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
        }
    }

    fn store(&mut self, dst: &CDst, val: &str) {
        match dst {
            CDst::Slot(s) => {
                let m = self.sw.masks[*s];
                self.line(&format!("phv[{s}] = ({val}) & {m:#x};"));
            }
            CDst::DynSlot { base, count, idx, what } => {
                let iv = self.expr(idx);
                let t = self.tmp();
                let d = self.diag(what);
                self.line(&format!("let {t} = ({iv}) as usize;"));
                self.line(&format!(
                    "if {t} >= {count} {{ return Err(f_dyn({d}, {t} as u64, {count})); }}"
                ));
                self.line(&format!("phv[{base} + {t}] = ({val}) & MASKS[{base} + {t}];"));
            }
            CDst::Reg { reg, cell } => {
                let len = self.sw.registers[*reg].cells.len();
                let mask = self.sw.registers[*reg].elem_mask;
                let cv = self.expr(cell);
                let t = self.tmp();
                self.line(&format!("let {t} = ({cv}) as usize;"));
                self.line(&format!(
                    "if {t} >= {len} {{ return Err(f_reg({reg}, {t} as u64, {len})); }}"
                ));
                // The bytecode's fault-after-write fact is a fact about the
                // program: where it holds, no fault can follow this write.
                if self.sw.compiled.undo_log.is_some() {
                    self.line(&format!(
                        "undo.push(({reg}u32, {t} as u64, regs.r{reg}[{t}]));"
                    ));
                }
                self.line(&format!("regs.r{reg}[{t}] = ({val}) & {mask:#x};"));
            }
        }
    }

    // ---------------------------------------------------- expressions

    /// Emit `e` as a Rust expression string, materializing any impure
    /// subexpression (bounds-checked reads, division) into temporaries
    /// in source order first.
    fn expr(&mut self, e: &CExpr) -> String {
        match e {
            CExpr::Const(v) => format!("{v}u64"),
            CExpr::Slot(s) => format!("phv[{s}]"),
            CExpr::DynSlot { base, count, idx, what } => {
                let iv = self.expr(idx);
                let t = self.tmp();
                let d = self.diag(what);
                self.line(&format!("let {t} = ({iv}) as usize;"));
                self.line(&format!(
                    "if {t} >= {count} {{ return Err(f_dyn({d}, {t} as u64, {count})); }}"
                ));
                format!("phv[{base} + {t}]")
            }
            CExpr::RegRead { reg, cell } => {
                let len = self.sw.registers[*reg].cells.len();
                let cv = self.expr(cell);
                let t = self.tmp();
                self.line(&format!("let {t} = ({cv}) as usize;"));
                self.line(&format!(
                    "if {t} >= {len} {{ return Err(f_reg({reg}, {t} as u64, {len})); }}"
                ));
                format!("regs.r{reg}[{t}]")
            }
            CExpr::Not(a) => {
                let av = self.expr(a);
                format!("((({av}) == 0) as u64)")
            }
            CExpr::Neg(a) => {
                let av = self.expr(a);
                format!("(({av}).wrapping_neg())")
            }
            CExpr::Bin { op, a, b } => {
                let av = self.expr(a);
                let bv = self.expr(b);
                match op {
                    BinOp::Add => format!("(({av}).wrapping_add({bv}))"),
                    BinOp::Sub => format!("(({av}).wrapping_sub({bv}))"),
                    BinOp::Mul => format!("(({av}).wrapping_mul({bv}))"),
                    BinOp::Div => {
                        // Left operand first, then the divisor, then the
                        // zero check — the interpreter's order.
                        let x = self.tmp();
                        self.line(&format!("let {x} = {av};"));
                        let y = self.tmp();
                        self.line(&format!("let {y} = {bv};"));
                        self.line(&format!(
                            "if {y} == 0 {{ return Err(f_div()); }}"
                        ));
                        format!("({x} / {y})")
                    }
                    BinOp::Lt => format!("(((({av}) < ({bv}))) as u64)"),
                    BinOp::Le => format!("(((({av}) <= ({bv}))) as u64)"),
                    BinOp::Gt => format!("(((({av}) > ({bv}))) as u64)"),
                    BinOp::Ge => format!("(((({av}) >= ({bv}))) as u64)"),
                    BinOp::Eq => format!("(((({av}) == ({bv}))) as u64)"),
                    BinOp::Ne => format!("(((({av}) != ({bv}))) as u64)"),
                    // `&`/`|` on bools: both operands always evaluated,
                    // matching the interpreter's non-short-circuit `and`.
                    BinOp::And => {
                        format!("((((({av}) != 0) & (({bv}) != 0))) as u64)")
                    }
                    BinOp::Or => {
                        format!("((((({av}) != 0) | (({bv}) != 0))) as u64)")
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------ ABI

    fn emit_abi(&mut self) {
        let r = self.sw.registers.len();

        self.line("#[no_mangle]");
        self.line("pub extern \"C\" fn p4n_abi_version() -> u64 { 2 }");
        self.blank();

        self.line("#[no_mangle]");
        self.line("pub extern \"C\" fn p4n_new() -> *mut State {");
        self.line("    Box::into_raw(Box::new(State {");
        let tables: Vec<String> =
            self.sw.ctables.iter().map(|t| format!("Table::new({})", t.key_words())).collect();
        self.line(&format!("        tables: [{}],", tables.join(", ")));
        self.line("        undo: Vec::new(),");
        self.line("    }))");
        self.line("}");
        self.blank();

        self.line("/// # Safety");
        self.line("/// `state` must be a pointer returned by `p4n_new`, not yet freed.");
        self.line("#[no_mangle]");
        self.line("pub unsafe extern \"C\" fn p4n_free(state: *mut State) {");
        self.line("    drop(Box::from_raw(state));");
        self.line("}");
        self.blank();

        self.line("/// # Safety");
        self.line("/// `key` must point at `key_len` readable u64s and `data` at");
        self.line("/// `data_len` readable (slot, value) u64 pairs.");
        self.line("#[no_mangle]");
        self.line("pub unsafe extern \"C\" fn p4n_install(");
        self.line("    state: *mut State,");
        self.line("    table: u64,");
        self.line("    key: *const u64,");
        self.line("    key_len: u64,");
        self.line("    action: u64,");
        self.line("    data: *const u64,");
        self.line("    data_len: u64,");
        self.line(") {");
        self.line("    let state = &mut *state;");
        self.line("    let key = std::slice::from_raw_parts(key, key_len as usize);");
        self.line("    let raw = std::slice::from_raw_parts(data, (data_len as usize) * 2);");
        self.line("    let data = raw.chunks_exact(2).map(|p| (p[0] as u32, p[1])).collect();");
        self.line("    if let Some(t) = state.tables.get_mut(table as usize) {");
        self.line("        t.insert(key, Entry { action: action as u32, data });");
        self.line("    }");
        self.line("}");
        self.blank();

        self.line("/// # Safety");
        self.line("/// `key` must point at `key_len` readable u64s.");
        self.line("#[no_mangle]");
        self.line("pub unsafe extern \"C\" fn p4n_remove(state: *mut State, table: u64, key: *const u64, key_len: u64) {");
        self.line("    let state = &mut *state;");
        self.line("    let key = std::slice::from_raw_parts(key, key_len as usize);");
        self.line("    if let Some(t) = state.tables.get_mut(table as usize) {");
        self.line("        t.remove(key);");
        self.line("    }");
        self.line("}");
        self.blank();

        self.line("/// # Safety");
        self.line("/// `state` must be a live pointer from `p4n_new`.");
        self.line("#[no_mangle]");
        self.line("pub unsafe extern \"C\" fn p4n_clear_table(state: *mut State, table: u64) {");
        self.line("    let state = &mut *state;");
        self.line("    if let Some(t) = state.tables.get_mut(table as usize) {");
        self.line("        t.clear();");
        self.line("    }");
        self.line("}");
        self.blank();

        self.line("/// Run one packet in place. Returns 0 on success; on a fault the");
        self.line("/// 4-word record at `fault` is filled and the code returned. All");
        self.line("/// register writes of a faulting packet are rolled back here.");
        self.line("///");
        self.line("/// # Safety");
        self.line("/// `phv` points at PHV_LEN u64s; `regs` points at one valid cell");
        self.line("/// pointer per register instance; `fault` at 4 writable u64s.");
        self.line("#[no_mangle]");
        self.line("pub unsafe extern \"C\" fn p4n_run_packet(");
        self.line("    state: *mut State,");
        self.line("    phv: *mut u64,");
        self.line("    regs: *const *mut u64,");
        self.line("    fault: *mut u64,");
        self.line(") -> u64 {");
        self.line("    let state = &mut *state;");
        self.line("    let phv = &mut *(phv as *mut Phv);");
        if r == 0 {
            self.line("    let mut r = Regs { _lt: std::marker::PhantomData };");
        } else {
            self.line("    let mut r = Regs {");
            for (i, reg) in self.sw.registers.iter().enumerate() {
                self.line(&format!(
                    "        r{i}: &mut *(*regs.add({i}) as *mut [u64; {}]),",
                    reg.cells.len()
                ));
            }
            self.line("    };");
        }
        self.line("    state.undo.clear();");
        self.line("    let State { tables, undo } = state;");
        self.line("    match run(phv, &mut r, tables, undo) {");
        self.line("        Ok(()) => 0,");
        self.line("        Err(f) => {");
        self.line("            rollback(&mut r, undo);");
        self.line("            *fault.add(0) = f.code;");
        self.line("            *fault.add(1) = f.a;");
        self.line("            *fault.add(2) = f.b;");
        self.line("            *fault.add(3) = f.c;");
        self.line("            f.code");
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.blank();

        self.line("/// Run `n` packets stored back to back (packet-major, PHV_LEN");
        self.line("/// words each) in place through one FFI call — the batched entry");
        self.line("/// that amortizes the per-packet call and register-window setup.");
        self.line("/// Returns `n` when every packet succeeds; on the first fault it");
        self.line("/// fills the 4-word record, rolls that packet's register writes");
        self.line("/// back, and returns the packet's index — the caller counts the");
        self.line("/// drop and resumes at index + 1.");
        self.line("///");
        self.line("/// # Safety");
        self.line("/// `phvs` points at `n * PHV_LEN` u64s; `regs` points at one valid");
        self.line("/// cell pointer per register instance; `fault` at 4 writable u64s.");
        self.line("#[no_mangle]");
        self.line("pub unsafe extern \"C\" fn p4n_run_batch(");
        self.line("    state: *mut State,");
        self.line("    phvs: *mut u64,");
        self.line("    n: u64,");
        self.line("    regs: *const *mut u64,");
        self.line("    fault: *mut u64,");
        self.line(") -> u64 {");
        self.line("    let state = &mut *state;");
        if r == 0 {
            self.line("    let mut r = Regs { _lt: std::marker::PhantomData };");
        } else {
            self.line("    let mut r = Regs {");
            for (i, reg) in self.sw.registers.iter().enumerate() {
                self.line(&format!(
                    "        r{i}: &mut *(*regs.add({i}) as *mut [u64; {}]),",
                    reg.cells.len()
                ));
            }
            self.line("    };");
        }
        self.line("    let State { tables, undo } = state;");
        self.line("    for i in 0..n as usize {");
        self.line("        let phv = &mut *(phvs.add(i * PHV_LEN) as *mut Phv);");
        self.line("        undo.clear();");
        self.line("        if let Err(f) = run(phv, &mut r, tables, undo) {");
        self.line("            rollback(&mut r, undo);");
        self.line("            *fault.add(0) = f.code;");
        self.line("            *fault.add(1) = f.a;");
        self.line("            *fault.add(2) = f.b;");
        self.line("            *fault.add(3) = f.c;");
        self.line("            return i as u64;");
        self.line("        }");
        self.line("    }");
        self.line("    n");
        self.line("}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Backend;
    use p4all_core::{CompileCtx, CompileOptions};
    use p4all_pisa::presets;

    const CMS: &str = r#"
        symbolic int rows;
        assume rows >= 1 && rows <= 3;
        optimize rows;
        header pkt { bit<32> key; }
        struct metadata { bit<32>[rows] idx; bit<32> min; }
        register<bit<32>>[64][rows] sketch;
        action bump()[int i] {
            meta.idx[i] = hash(hdr.key, 64);
            sketch[i][meta.idx[i]] = sketch[i][meta.idx[i]] + 1;
        }
        control Main() { apply { for (i < rows) { bump()[i]; } } }
    "#;

    fn build() -> Switch {
        let mut ctx = CompileCtx::new(CompileOptions::default());
        let c = ctx.compile(CMS, &presets::paper_eval(1 << 15)).expect("compiles");
        let program = p4all_lang::parse(CMS).expect("parses");
        let mut sw = Switch::build(&c.concrete, &program).expect("builds");
        sw.set_backend(Backend::Interp);
        sw
    }

    #[test]
    fn generation_is_deterministic() {
        let sw = build();
        let a = generate(&sw);
        let b = generate(&sw);
        assert_eq!(a.source, b.source, "two lowerings of one Switch must be byte-identical");
        assert_eq!(a.diags, b.diags);
    }

    #[test]
    fn generated_source_mentions_every_stage_and_abi_entry() {
        let sw = build();
        let g = generate(&sw);
        for s in 0..sw.stage_count() {
            assert!(g.source.contains(&format!("fn stage_{s}(")), "missing stage {s}");
        }
        for sym in ["p4n_new", "p4n_free", "p4n_install", "p4n_remove", "p4n_clear_table", "p4n_run_packet", "p4n_run_batch", "p4n_abi_version"] {
            assert!(g.source.contains(sym), "missing ABI symbol {sym}");
        }
    }

    /// The generated crate's table store is `flat_table.rs` itself, byte
    /// for byte — the open-addressed table the bytecode engine runs and
    /// `flat_table_tests.rs` tests — and no second copy is printed from
    /// string literals.
    #[test]
    fn generated_tables_use_open_addressing() {
        let sw = build();
        let g = generate(&sw);
        assert!(g.source.contains(include_str!("flat_table.rs")), "flat_table.rs not embedded");
        assert_eq!(g.source.matches("fn table_hash").count(), 1, "one hash");
        assert_eq!(g.source.matches("impl Table").count(), 1, "one table");
        let printer = include_str!("codegen.rs");
        let quoted = ["self.line(\"impl", " Table"].concat();
        assert!(!printer.contains(&quoted), "codegen.rs prints a table of its own again");
    }
}
