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
//! compiled by [`crate::native`] into a cdylib and driven through one
//! C entry point, `p4n_run_batch`. The crate holds the program and no
//! state: registers, tables and undo log are host memory it reads through
//! raw pointers, so `rustc` is paid only for what varies by program.
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
//!   and a dropped packet leaves no trace. An undo-free program
//!   (`CompiledProgram::undo_log` is `None`: no fault can follow a
//!   register write) has no undo log; any other logs each write into a
//!   host buffer of `Generated::undo_cap` records and rolls it back.
//! * Tables are the bytecode engine's own, read through `#[repr(C)]`
//!   views; the hash and probe are `table_probe.rs`, pasted verbatim.
//!   Table and action ids are the bytecode's dense numbering.
//!
//! Generation is deterministic: two lowerings of the same `Switch`
//! produce byte-identical source (asserted by `tests/native_backend.rs`).
//! The output is `#![no_std]` and dependency-free by design: the build
//! environment has no route to crates.io, so the generated crate must
//! compile with a bare `rustc` invocation.

use p4all_lang::ast::BinOp;

use crate::compiled::DefaultAction;
use crate::interp::{splitmix, CDst, CExpr, CStmt, Switch};
use crate::name_map::NameMap;

/// The version of the `p4n_*` ABI: printed into every generated crate and
/// checked by the loader. 3: tables and undo log are host memory.
pub(crate) const ABI_VERSION: u64 = 3;

/// The lowering product: source text plus the side tables the host needs
/// to reconstruct exact [`crate::SimError`] values from fault records.
pub(crate) struct Generated {
    pub source: String,
    /// Diagnostic strings for dynamic-slot bounds faults, indexed by the
    /// diag id baked into `f_dyn` calls.
    pub diags: Vec<String>,
    /// Records of the host undo buffer `p4n_run_batch` takes (`UNDO_CAP`
    /// in the source): the most register writes on any one packet path,
    /// or `None` for an undo-free program, whose entry point takes no
    /// buffer.
    pub undo_cap: Option<usize>,
}

/// The hash, probe and table view both fast engines share, as source text.
const TABLE_PROBE: &str = include_str!("table_probe.rs");

/// Lower `sw` into a self-contained Rust crate exposing the `p4n_*` ABI.
pub(crate) fn generate(sw: &Switch) -> Generated {
    let logged = sw.compiled.undo_log.is_some();
    let mut g = Gen {
        sw,
        logged,
        undo: if logged { (", undo: &mut Undo", ", undo") } else { ("", "") },
        src: String::new(),
        indent: 0,
        tmp: 0,
        diags: Vec::new(),
        diag_ids: NameMap::default(),
    };
    g.emit_prelude();
    let apply_writes = g.emit_actions();
    let writes = g.emit_stages(apply_writes);
    let undo_cap = logged.then_some(writes);
    g.emit_abi(undo_cap);
    Generated { source: g.src, diags: g.diags, undo_cap }
}

struct Gen<'a> {
    sw: &'a Switch,
    /// The program logs its register writes (it is not undo-free), and
    /// so every printed function takes `undo`: its parameter and argument.
    logged: bool,
    undo: (&'static str, &'static str),
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
        self.line("#![no_std]");
        self.line("#![allow(dead_code, unused_variables, unused_mut)]");
        self.blank();
        // Without `std` the crate brings its own panic handler. It aborts,
        // as a panic in a `std` crate's `extern "C"` function does.
        self.line("extern \"C\" {");
        self.line("    fn abort() -> !;");
        self.line("}");
        self.blank();
        self.line("#[panic_handler]");
        self.line("fn panic(_: &core::panic::PanicInfo) -> ! {");
        self.line("    unsafe { abort() }");
        self.line("}");
        self.blank();
        self.line("/// Named by the prebuilt `core`, which unwinds; nothing here does.");
        self.line("#[no_mangle]");
        self.line("pub extern \"C\" fn rust_eh_personality() {}");
        self.blank();
        self.line(&format!("const PHV_LEN: usize = {n};"));
        let masks: Vec<String> =
            self.sw.masks.iter().map(|m| format!("{m:#x}")).collect();
        self.line(&format!("static MASKS: [u64; PHV_LEN] = [{}];", masks.join(", ")));
        self.blank();
        self.line("type Phv = [u64; PHV_LEN];");
        self.blank();

        // Register window: one fixed-length mutable view per instance.
        self.line("struct Regs<'a> {");
        self.line("    _lt: core::marker::PhantomData<&'a ()>,");
        for (i, reg) in self.sw.registers.iter().enumerate() {
            self.line(&format!("    r{i}: &'a mut [u64; {}],", reg.cells.len()));
        }
        self.line("}");
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

        // The probe is not printed but pasted: one implementation, compiled
        // and unit-tested where it lives.
        self.src.push_str(TABLE_PROBE);
        self.blank();
        self.line(&format!("type Tables = [TableView; {t}];"));
        self.blank();

        if !self.logged {
            return;
        }
        // The packet's register writes as `[register, cell, old value]`.
        self.line("struct Undo<'a> { log: &'a mut [[u64; 3]], len: usize }");
        self.blank();
        self.line("fn rollback(regs: &mut Regs, undo: &Undo) {");
        self.line("    for &[r, c, old] in undo.log[..undo.len].iter().rev() {");
        self.line("        match r {");
        for i in 0..r {
            self.line(&format!("            {i} => regs.r{i}[c as usize] = old,"));
        }
        self.line("            _ => {}");
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.blank();
    }

    // ------------------------------------------------- actions/stages

    /// Print every table action; returns the most register writes any
    /// one of them can make.
    fn emit_actions(&mut self) -> usize {
        let mut writes = 0;
        for (id, name) in self.actions_by_id() {
            let body = self.sw.table_actions[name.as_str()].clone();
            self.tmp = 0;
            self.line(&format!("// table action `{name}`"));
            self.line(&format!(
                "fn action_{id}(phv: &mut Phv, regs: &mut Regs{}) -> Result<(), Fault> {{",
                self.undo.0
            ));
            self.indent += 1;
            writes = writes.max(body.iter().map(|s| self.stmt(s)).sum());
            self.line("Ok(())");
            self.indent -= 1;
            self.line("}");
            self.blank();
        }
        writes
    }

    /// Print the stages and `run`; returns the most register writes on
    /// any one packet path, counting an apply as `apply_writes`, the
    /// widest table action (an entry may name any of them).
    fn emit_stages(&mut self, apply_writes: usize) -> usize {
        let (param, arg) = self.undo;
        let mut writes = 0;
        let stage_count = self.sw.stages.len();
        for s in 0..stage_count {
            let actions = self.sw.stages[s].clone();
            self.tmp = 0;
            self.line(&format!(
                "fn stage_{s}(phv: &mut Phv, regs: &mut Regs, tables: &Tables{param}) -> Result<(), Fault> {{"
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
                    writes += apply_writes;
                }
                writes += a.body.iter().map(|st| self.stmt(st)).sum::<usize>();
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

        self.line(&format!(
            "fn run(phv: &mut Phv, regs: &mut Regs, tables: &Tables{param}) -> Result<(), Fault> {{"
        ));
        self.indent += 1;
        for s in 0..stage_count {
            self.line(&format!("stage_{s}(phv, regs, tables{arg})?;"));
        }
        self.line("Ok(())");
        self.indent -= 1;
        self.line("}");
        self.blank();
        writes
    }

    fn emit_apply(&mut self, tname: &str, keys: &[CExpr]) {
        let tid = self.table_id(tname);
        let arg = self.undo.1;
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
        // SAFETY (printed code): the host builds `tables` from its live
        // tables for this call and does not touch them until it returns.
        self.line(&format!(
            "if let Some((action, data)) = unsafe {{ tables[{tid}].lookup(&{kt}) }} {{"
        ));
        self.indent += 1;
        self.line("for pair in data.chunks_exact(2) {");
        self.line("    let s = pair[0] as usize;");
        self.line("    phv[s] = pair[1] & MASKS[s];");
        self.line("}");
        self.line("match action {");
        self.indent += 1;
        for (id, _) in self.actions_by_id() {
            self.line(&format!("{id} => action_{id}(phv, regs{arg})?,"));
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
                self.line(&format!("    action_{id}(phv, regs{arg})?;"));
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

    /// Print `s`; returns the most register writes on any path through it.
    fn stmt(&mut self, s: &CStmt) -> usize {
        match s {
            CStmt::Assign { dst, val } => {
                // Value before destination index, like the interpreter.
                let v = self.expr(val);
                self.store(dst, &v)
            }
            CStmt::Hash { dst, inputs, range, salt } => {
                let h = self.tmp();
                // The salt's first mix round is a compile-time constant.
                self.line(&format!("let mut {h} = {:#x}u64;", splitmix(*salt)));
                for i in inputs {
                    let iv = self.expr(i);
                    self.line(&format!("{h} = splitmix({h} ^ ({iv}));"));
                }
                self.store(dst, &format!("({h} % {range}u64)"))
            }
            CStmt::If { cond, then_body, else_body } => {
                let cv = self.expr(cond);
                self.line(&format!("if ({cv}) != 0 {{"));
                self.indent += 1;
                let then_writes: usize = then_body.iter().map(|t| self.stmt(t)).sum();
                self.indent -= 1;
                if else_body.is_empty() {
                    self.line("}");
                    return then_writes;
                }
                self.line("} else {");
                self.indent += 1;
                let else_writes: usize = else_body.iter().map(|t| self.stmt(t)).sum();
                self.indent -= 1;
                self.line("}");
                then_writes.max(else_writes)
            }
        }
    }

    /// Print a store; returns the register writes it makes (0 or 1).
    fn store(&mut self, dst: &CDst, val: &str) -> usize {
        match dst {
            CDst::Slot(s) => {
                let m = self.sw.masks[*s];
                self.line(&format!("phv[{s}] = ({val}) & {m:#x};"));
                0
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
                0
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
                if self.logged {
                    let old = format!("[{reg}, {t} as u64, regs.r{reg}[{t}]]");
                    self.line(&format!("undo.log[undo.len] = {old}; undo.len += 1;"));
                }
                self.line(&format!("regs.r{reg}[{t}] = ({val}) & {mask:#x};"));
                1
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

    /// Print the entry points; a program that logs takes a host undo
    /// buffer of `undo_cap` records.
    fn emit_abi(&mut self, undo_cap: Option<usize>) {
        if let Some(cap) = undo_cap {
            self.line(&format!("const UNDO_CAP: usize = {cap};"));
            self.blank();
        }
        self.line("#[no_mangle]");
        self.line(&format!("pub extern \"C\" fn p4n_abi_version() -> u64 {{ {ABI_VERSION} }}"));
        self.blank();

        // The ABI contract (`native::NativeEngine::run`): `phvs` holds `n`
        // PHVs back to back, `tables` one view per table, `regs` one cell
        // pointer per register instance, `undo` UNDO_CAP records, `fault`
        // 4 words. Returns the first faulting packet's index, or `n`.
        self.line("#[no_mangle]");
        self.line("pub unsafe extern \"C\" fn p4n_run_batch(");
        self.line("    phvs: *mut u64,");
        self.line("    n: u64,");
        self.line("    tables: *const TableView,");
        self.line("    regs: *const *mut u64,");
        if self.logged {
            self.line("    undo: *mut [u64; 3],");
        }
        self.line("    fault: *mut u64,");
        self.line(") -> u64 {");
        self.line("    let tables = &*(tables as *const Tables);");
        self.line("    let mut r = Regs {");
        self.line("        _lt: core::marker::PhantomData,");
        for (i, reg) in self.sw.registers.iter().enumerate() {
            self.line(&format!(
                "        r{i}: &mut *(*regs.add({i}) as *mut [u64; {}]),",
                reg.cells.len()
            ));
        }
        self.line("    };");
        if self.logged {
            self.line("    let log = core::slice::from_raw_parts_mut(undo, UNDO_CAP);");
            self.line("    let mut undo = Undo { log, len: 0 };");
        }
        self.line("    for i in 0..n as usize {");
        self.line("        let phv = &mut *(phvs.add(i * PHV_LEN) as *mut Phv);");
        if self.logged {
            self.line("        undo.len = 0;");
            self.line("        if let Err(f) = run(phv, &mut r, tables, &mut undo) {");
            self.line("            rollback(&mut r, &undo);");
        } else {
            self.line("        if let Err(f) = run(phv, &mut r, tables) {");
        }
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
        for sym in ["p4n_run_batch", "p4n_abi_version"] {
            assert!(g.source.contains(sym), "missing ABI symbol {sym}");
        }
        assert!(g.source.contains(&format!("-> u64 {{ {ABI_VERSION} }}")), "ABI version");
        // The control plane and its state are host memory: no entry point
        // for them, no state of the crate's own, and nothing allocated.
        for gone in ["p4n_new", "p4n_free", "p4n_install", "p4n_remove", "p4n_clear_table"] {
            assert!(!g.source.contains(gone), "control-plane entry {gone} printed");
        }
        for gone in ["State", "Vec<", "Box<", "HashMap", "std::"] {
            assert!(!g.source.contains(gone), "the generated source names {gone}");
        }
        // The CMS program is undo-free: its entry point takes no buffer.
        assert_eq!((sw.compiled.undo_log, g.undo_cap), (None, None));
        assert!(!g.source.contains("undo"), "undo-free source mentions an undo log");
    }

    /// The generated crate probes tables with `table_probe.rs` itself, byte
    /// for byte — the text `flat_table.rs` includes and compiles for the
    /// bytecode engine — and prints no hash or table of its own.
    #[test]
    fn generated_tables_use_open_addressing() {
        let sw = build();
        let g = generate(&sw);
        let probe = include_str!("table_probe.rs");
        assert!(g.source.contains(probe), "table_probe.rs not embedded");
        assert!(include_str!("flat_table.rs").contains("include!(\"table_probe.rs\")"));
        assert_eq!(g.source.matches("fn table_hash").count(), 1, "one hash");
        assert_eq!(g.source.matches("fn probe").count(), 1, "one probe");
        assert!(!g.source.contains("impl Table "), "no table store of its own");
        let printer = include_str!("codegen.rs");
        let quoted = ["self.line(\"fn", " probe"].concat();
        assert!(!printer.contains(&quoted), "codegen.rs prints a probe of its own again");
    }
}
