//! Compiler IR: atomic action instances produced by loop unrolling.
//!
//! Unrolling replaces each elastic loop `for (i < v)` with `K` copies of
//! its body (§4.2); every action call / inline statement / table apply
//! becomes an [`ActionInstance`] — the unit the dependency analysis and the
//! ILP place into stages. Each instance records:
//!
//! - the metadata/header slots it reads and writes (including the reads of
//!   every enclosing `if` condition — control dependencies);
//! - at most one register access (PISA stateful atomicity);
//! - its primitive-operation multiset, costed by the target's `H_f`/`H_l`;
//! - its substituted statements and guard, reused later by code generation
//!   and by the behavioral simulator.

use std::collections::BTreeMap;

use p4all_lang::ast::*;
use p4all_lang::diag::Diagnostic;
use p4all_lang::span::Span;
use p4all_pisa::PrimitiveOp;

use crate::elaborate::ProgramInfo;

/// One unrolled loop level: which symbolic, which iteration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iter {
    pub symbolic: String,
    pub index: usize,
}

/// A storage slot for dependency analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    /// Scalar metadata field.
    Meta(String),
    /// One element of a metadata array (statically known index).
    MetaElem(String, usize),
    /// A metadata array accessed with a runtime index (conservative: the
    /// whole array).
    MetaWhole(String),
    /// Header field.
    Header(String),
}

impl Slot {
    /// Do two slots potentially alias?
    pub fn conflicts(&self, other: &Slot) -> bool {
        use Slot::*;
        match (self, other) {
            (Meta(a), Meta(b)) => a == b,
            (Header(a), Header(b)) => a == b,
            (MetaElem(a, i), MetaElem(b, j)) => a == b && i == j,
            (MetaWhole(a), MetaWhole(b)) => a == b,
            (MetaWhole(a), MetaElem(b, _)) | (MetaElem(b, _), MetaWhole(a)) => a == b,
            _ => false,
        }
    }
}

/// How an instance touches its register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegKind {
    Read,
    Write,
    Rmw,
}

/// A (register, instance) access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAccess {
    pub reg: String,
    /// Concrete instance index within an array of register arrays (0 for
    /// singleton registers).
    pub instance: usize,
    pub kind: RegKind,
}

/// An atomic, placeable unit of data-plane work.
#[derive(Debug, Clone)]
pub struct ActionInstance {
    pub id: usize,
    /// Display label, e.g. `incr[2]`, `Main#1`, `tbl:cache`.
    pub label: String,
    /// Originating action name (or synthetic name for inline statements).
    pub base: String,
    /// Program order (for dependency direction).
    pub order: usize,
    /// Enclosing elastic-loop iterations, outermost first.
    pub iters: Vec<Iter>,
    pub reads: Vec<Slot>,
    pub writes: Vec<Slot>,
    pub reg: Option<RegAccess>,
    pub ops: Vec<PrimitiveOp>,
    /// Conjunction of enclosing `if` conditions (iteration-substituted).
    pub guard: Option<Expr>,
    /// Iteration-substituted body statements (empty for table applies).
    pub stmts: Vec<Stmt>,
    /// Set for table-apply instances.
    pub table: Option<String>,
    /// Source span of the originating call/statement — survives into ILP
    /// row provenance and infeasibility explanations.
    pub span: Span,
    /// Scalar slots both read and written — the commutativity witness used
    /// for exclusion edges (the paper's `min` accumulator pattern).
    pub accumulators: Vec<Slot>,
}

/// The fully unrolled program at a particular choice of loop bounds.
#[derive(Debug, Clone, Default)]
pub struct Unrolled {
    pub instances: Vec<ActionInstance>,
}

/// Unroll the entry control of `info.program`, bounding each elastic loop
/// `for (i < v)` by `bounds[v]` iterations.
pub fn instantiate(
    info: &ProgramInfo,
    bounds: &BTreeMap<String, usize>,
) -> Result<Unrolled, Diagnostic> {
    let mut ctx = Instantiator {
        info,
        bounds,
        out: Unrolled::default(),
        env: BTreeMap::new(),
        guards: Vec::new(),
        iters: Vec::new(),
        inline_counter: 0,
    };
    if let Some(entry) = info.program.entry_control() {
        ctx.block(&entry.body, &entry.name.clone())?;
    }
    Ok(ctx.out)
}

struct Instantiator<'a> {
    info: &'a ProgramInfo,
    bounds: &'a BTreeMap<String, usize>,
    out: Unrolled,
    env: BTreeMap<String, usize>,
    guards: Vec<Expr>,
    iters: Vec<Iter>,
    inline_counter: usize,
}

impl<'a> Instantiator<'a> {
    fn block(&mut self, stmts: &[Stmt], ctx_name: &str) -> Result<(), Diagnostic> {
        for s in stmts {
            self.stmt(s, ctx_name)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, ctx_name: &str) -> Result<(), Diagnostic> {
        match s {
            Stmt::For { var, bound, body, span } => {
                let (n, tagged) = match bound {
                    Size::Const(c) => (*c as usize, None),
                    Size::Symbolic(v) => {
                        let Some(&n) = self.bounds.get(v) else {
                            return Err(Diagnostic::error_at(
                                format!("no unroll bound provided for symbolic `{v}`"),
                                *span,
                            ));
                        };
                        (n, Some(v.clone()))
                    }
                };
                for i in 0..n {
                    self.env.insert(var.clone(), i);
                    if let Some(v) = &tagged {
                        self.iters.push(Iter { symbolic: v.clone(), index: i });
                    }
                    self.block(body, ctx_name)?;
                    if tagged.is_some() {
                        self.iters.pop();
                    }
                }
                self.env.remove(var);
                Ok(())
            }
            Stmt::If { cond, then_body, else_body, span: _ } => {
                let c = subst_expr(cond, &self.env)?;
                self.guards.push(c.clone());
                self.block(then_body, ctx_name)?;
                self.guards.pop();
                if !else_body.is_empty() {
                    self.guards.push(Expr::Unary { op: UnOp::Not, operand: Box::new(c) });
                    self.block(else_body, ctx_name)?;
                    self.guards.pop();
                }
                Ok(())
            }
            Stmt::CallAction { name, index, span } => {
                let action = self
                    .info
                    .program
                    .action(name)
                    .ok_or_else(|| Diagnostic::error_at(format!("undeclared action `{name}`"), *span))?
                    .clone();
                let mut env = BTreeMap::new();
                match (&action.index_param, index) {
                    (Some(param), Some(ix)) => {
                        let v = eval_index(ix, &self.env, *span)?;
                        env.insert(param.clone(), v);
                    }
                    (Some(_), None) => {
                        return Err(Diagnostic::error_at(
                            format!("indexed action `{name}` called without `[i]`"),
                            *span,
                        ))
                    }
                    (None, Some(_)) => {
                        return Err(Diagnostic::error_at(
                            format!("action `{name}` takes no index"),
                            *span,
                        ))
                    }
                    (None, None) => {}
                }
                let label = match env.values().next() {
                    Some(i) => format!("{name}[{i}]"),
                    None => name.clone(),
                };
                let stmts: Result<Vec<Stmt>, Diagnostic> =
                    action.body.iter().map(|st| subst_stmt(st, &env)).collect();
                self.emit(label, name.clone(), stmts?, None, *span)
            }
            Stmt::Assign { span, .. } | Stmt::HashAssign { span, .. } => {
                let st = subst_stmt(s, &self.env)?;
                let label = format!("{ctx_name}#{}", self.inline_counter);
                self.inline_counter += 1;
                self.emit(label.clone(), label, vec![st], None, *span)
            }
            Stmt::ApplyTable { name, span } => {
                self.emit(format!("tbl:{name}"), name.clone(), Vec::new(), Some(name.clone()), *span)
            }
            Stmt::ApplyControl { name, span } => {
                let ctl = self
                    .info
                    .program
                    .control(name)
                    .ok_or_else(|| Diagnostic::error_at(format!("undeclared control `{name}`"), *span))?
                    .clone();
                self.block(&ctl.body, &ctl.name)
            }
        }
    }

    /// Build one ActionInstance from substituted statements.
    fn emit(
        &mut self,
        label: String,
        base: String,
        stmts: Vec<Stmt>,
        table: Option<String>,
        span: Span,
    ) -> Result<(), Diagnostic> {
        let mut reads: Vec<Slot> = Vec::new();
        let mut writes: Vec<Slot> = Vec::new();
        let mut reg_accesses: Vec<(String, usize, RegKind)> = Vec::new();
        let mut ops: Vec<PrimitiveOp> = Vec::new();

        // Guard reads are control dependencies; each guard conjunct costs a
        // comparison in the stage's gateway.
        let guard = self.guards.iter().cloned().reduce(|a, b| Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(a),
            rhs: Box::new(b),
        });
        for g in &self.guards {
            expr_reads(g, &mut reads, &mut reg_accesses, span)?;
            ops.push(PrimitiveOp::Compare);
        }

        if let Some(tname) = &table {
            let tbl = self
                .info
                .program
                .table(tname)
                .ok_or_else(|| Diagnostic::error_at(format!("undeclared table `{tname}`"), span))?;
            ops.push(PrimitiveOp::TableMatch);
            for k in &tbl.keys {
                expr_reads(k, &mut reads, &mut reg_accesses, span)?;
            }
            // The table's actions may write metadata/headers; union their
            // effects (the control plane decides which fires at runtime).
            for aname in &tbl.actions {
                if let Some(a) = self.info.program.action(aname) {
                    for st in &a.body {
                        stmt_effects(st, &mut reads, &mut writes, &mut reg_accesses, &mut ops, span)?;
                    }
                }
            }
        }

        for st in &stmts {
            stmt_effects(st, &mut reads, &mut writes, &mut reg_accesses, &mut ops, span)?;
        }

        // Merge register accesses: at most one (reg, instance) per action.
        reg_accesses.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let mut merged: Option<RegAccess> = None;
        for (reg, inst, kind) in reg_accesses {
            match &mut merged {
                None => merged = Some(RegAccess { reg, instance: inst, kind }),
                Some(m) if m.reg == reg && m.instance == inst => {
                    m.kind = match (m.kind, kind) {
                        (RegKind::Read, RegKind::Read) => RegKind::Read,
                        (RegKind::Write, RegKind::Write) => RegKind::Write,
                        _ => RegKind::Rmw,
                    };
                }
                Some(m) => {
                    return Err(Diagnostic::error_at(
                        format!(
                            "action instance `{label}` accesses two register instances \
                             ({}[{}] and {reg}[{inst}]); stateful actions are atomic on one",
                            m.reg, m.instance
                        ),
                        span,
                    ))
                }
            }
        }
        if let Some(m) = &merged {
            ops.push(match m.kind {
                RegKind::Read => PrimitiveOp::RegisterRead,
                RegKind::Write => PrimitiveOp::RegisterWrite,
                RegKind::Rmw => PrimitiveOp::RegisterRmw,
            });
        }

        dedup(&mut reads);
        dedup(&mut writes);
        let accumulators: Vec<Slot> = writes
            .iter()
            .filter(|w| matches!(w, Slot::Meta(_)) && reads.iter().any(|r| r.conflicts(w)))
            .cloned()
            .collect();

        let id = self.out.instances.len();
        self.out.instances.push(ActionInstance {
            id,
            label,
            base,
            order: id,
            iters: self.iters.clone(),
            reads,
            writes,
            reg: merged,
            ops,
            guard,
            stmts,
            table,
            span,
            accumulators,
        });
        Ok(())
    }
}

fn dedup(v: &mut Vec<Slot>) {
    v.sort();
    v.dedup();
}

/// Evaluate an action-call index expression to a constant.
fn eval_index(e: &Expr, env: &BTreeMap<String, usize>, span: Span) -> Result<usize, Diagnostic> {
    match e {
        Expr::Int(v) => Ok(*v as usize),
        Expr::IndexVar(name) => env.get(name).copied().ok_or_else(|| {
            Diagnostic::error_at(format!("index variable `{name}` not in scope"), span)
        }),
        _ => Err(Diagnostic::error_at(
            "action index must be a loop variable or constant".to_string(),
            span,
        )),
    }
}

/// Substitute loop variables with constants in an expression.
fn subst_expr(e: &Expr, env: &BTreeMap<String, usize>) -> Result<Expr, Diagnostic> {
    Ok(match e {
        Expr::IndexVar(name) => match env.get(name) {
            Some(&v) => Expr::Int(v as u64),
            None => Expr::IndexVar(name.clone()),
        },
        Expr::Meta { field, index } => Expr::Meta {
            field: field.clone(),
            index: match index {
                Some(i) => Some(Box::new(subst_expr(i, env)?)),
                None => None,
            },
        },
        Expr::RegisterRead { reg, instance, cell } => Expr::RegisterRead {
            reg: reg.clone(),
            instance: match instance {
                Some(i) => Some(Box::new(subst_expr(i, env)?)),
                None => None,
            },
            cell: Box::new(subst_expr(cell, env)?),
        },
        Expr::Unary { op, operand } => {
            Expr::Unary { op: *op, operand: Box::new(subst_expr(operand, env)?) }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(subst_expr(lhs, env)?),
            rhs: Box::new(subst_expr(rhs, env)?),
        },
        other => other.clone(),
    })
}

/// Substitute loop variables in a statement.
fn subst_stmt(s: &Stmt, env: &BTreeMap<String, usize>) -> Result<Stmt, Diagnostic> {
    Ok(match s {
        Stmt::Assign { lhs, rhs, span } => Stmt::Assign {
            lhs: subst_lvalue(lhs, env)?,
            rhs: subst_expr(rhs, env)?,
            span: *span,
        },
        Stmt::HashAssign { lhs, inputs, range, span } => Stmt::HashAssign {
            lhs: subst_lvalue(lhs, env)?,
            inputs: inputs.iter().map(|e| subst_expr(e, env)).collect::<Result<_, _>>()?,
            range: range.clone(),
            span: *span,
        },
        Stmt::If { cond, then_body, else_body, span } => Stmt::If {
            cond: subst_expr(cond, env)?,
            then_body: then_body.iter().map(|t| subst_stmt(t, env)).collect::<Result<_, _>>()?,
            else_body: else_body.iter().map(|t| subst_stmt(t, env)).collect::<Result<_, _>>()?,
            span: *span,
        },
        Stmt::For { span, .. } => {
            return Err(Diagnostic::error_at(
                "loops are not allowed inside action bodies".to_string(),
                *span,
            ))
        }
        other => other.clone(),
    })
}

fn subst_lvalue(l: &LValue, env: &BTreeMap<String, usize>) -> Result<LValue, Diagnostic> {
    Ok(match l {
        LValue::Meta { field, index } => LValue::Meta {
            field: field.clone(),
            index: match index {
                Some(i) => Some(subst_expr(i, env)?),
                None => None,
            },
        },
        LValue::Header { field } => LValue::Header { field: field.clone() },
        LValue::Register { reg, instance, cell } => LValue::Register {
            reg: reg.clone(),
            instance: match instance {
                Some(i) => Some(subst_expr(i, env)?),
                None => None,
            },
            cell: Box::new(subst_expr(cell, env)?),
        },
    })
}

/// Read slots (and register reads) of an expression.
fn expr_reads(
    e: &Expr,
    reads: &mut Vec<Slot>,
    regs: &mut Vec<(String, usize, RegKind)>,
    span: Span,
) -> Result<(), Diagnostic> {
    match e {
        Expr::Meta { field, index } => {
            match index.as_deref() {
                None => reads.push(Slot::Meta(field.clone())),
                Some(Expr::Int(i)) => reads.push(Slot::MetaElem(field.clone(), *i as usize)),
                Some(other) => {
                    reads.push(Slot::MetaWhole(field.clone()));
                    expr_reads(other, reads, regs, span)?;
                }
            }
            Ok(())
        }
        Expr::Header { field } => {
            reads.push(Slot::Header(field.clone()));
            Ok(())
        }
        Expr::RegisterRead { reg, instance, cell } => {
            let inst = reg_instance_index(instance.as_deref(), span)?;
            regs.push((reg.clone(), inst, RegKind::Read));
            expr_reads(cell, reads, regs, span)
        }
        Expr::Unary { operand, .. } => expr_reads(operand, reads, regs, span),
        Expr::Binary { lhs, rhs, .. } => {
            expr_reads(lhs, reads, regs, span)?;
            expr_reads(rhs, reads, regs, span)
        }
        _ => Ok(()),
    }
}

fn reg_instance_index(instance: Option<&Expr>, span: Span) -> Result<usize, Diagnostic> {
    match instance {
        None => Ok(0),
        Some(Expr::Int(v)) => Ok(*v as usize),
        Some(_) => Err(Diagnostic::error_at(
            "register instance index must resolve to a constant (use the loop variable)"
                .to_string(),
            span,
        )),
    }
}

/// Accumulate the effects of one substituted statement.
fn stmt_effects(
    s: &Stmt,
    reads: &mut Vec<Slot>,
    writes: &mut Vec<Slot>,
    regs: &mut Vec<(String, usize, RegKind)>,
    ops: &mut Vec<PrimitiveOp>,
    span: Span,
) -> Result<(), Diagnostic> {
    match s {
        Stmt::Assign { lhs, rhs, .. } => {
            expr_reads(rhs, reads, regs, span)?;
            match lhs {
                LValue::Meta { field, index } => {
                    match index {
                        None => writes.push(Slot::Meta(field.clone())),
                        Some(Expr::Int(i)) => {
                            writes.push(Slot::MetaElem(field.clone(), *i as usize))
                        }
                        Some(other) => {
                            writes.push(Slot::MetaWhole(field.clone()));
                            expr_reads(other, reads, regs, span)?;
                        }
                    }
                    if !rhs.reads_register() {
                        ops.push(PrimitiveOp::MetaWrite);
                    }
                }
                LValue::Header { field } => {
                    writes.push(Slot::Header(field.clone()));
                    if !rhs.reads_register() {
                        ops.push(PrimitiveOp::MetaWrite);
                    }
                }
                LValue::Register { reg, instance, cell } => {
                    let inst = reg_instance_index(instance.as_ref(), span)?;
                    regs.push((reg.clone(), inst, RegKind::Write));
                    expr_reads(cell, reads, regs, span)?;
                }
            }
            Ok(())
        }
        Stmt::HashAssign { lhs, inputs, .. } => {
            for i in inputs {
                expr_reads(i, reads, regs, span)?;
            }
            ops.push(PrimitiveOp::Hash);
            match lhs {
                LValue::Meta { field, index } => match index {
                    None => writes.push(Slot::Meta(field.clone())),
                    Some(Expr::Int(i)) => writes.push(Slot::MetaElem(field.clone(), *i as usize)),
                    Some(other) => {
                        writes.push(Slot::MetaWhole(field.clone()));
                        expr_reads(other, reads, regs, span)?;
                    }
                },
                LValue::Header { field } => writes.push(Slot::Header(field.clone())),
                LValue::Register { reg, instance, cell } => {
                    let inst = reg_instance_index(instance.as_ref(), span)?;
                    regs.push((reg.clone(), inst, RegKind::Write));
                    expr_reads(cell, reads, regs, span)?;
                }
            }
            Ok(())
        }
        Stmt::If { cond, then_body, else_body, .. } => {
            expr_reads(cond, reads, regs, span)?;
            ops.push(PrimitiveOp::Compare);
            for t in then_body.iter().chain(else_body) {
                stmt_effects(t, reads, writes, regs, ops, span)?;
            }
            Ok(())
        }
        Stmt::For { span: fspan, .. } => Err(Diagnostic::error_at(
            "loops are not allowed inside action bodies".to_string(),
            *fspan,
        )),
        Stmt::CallAction { span, .. } | Stmt::ApplyTable { span, .. }
        | Stmt::ApplyControl { span, .. } => Err(Diagnostic::error_at(
            "nested calls/applies are not allowed inside action bodies".to_string(),
            *span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use p4all_lang::parse;

    const CMS: &str = r#"
        symbolic int rows;
        symbolic int cols;
        assume rows >= 1 && rows <= 4;
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

    fn unroll_cms(rows: usize) -> Unrolled {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("rows".to_string(), rows);
        instantiate(&info, &bounds).unwrap()
    }

    #[test]
    fn cms_unrolls_to_2k_instances() {
        let u = unroll_cms(3);
        assert_eq!(u.instances.len(), 6);
        let labels: Vec<&str> = u.instances.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["incr[0]", "incr[1]", "incr[2]", "set_min[0]", "set_min[1]", "set_min[2]"]
        );
    }

    #[test]
    fn incr_effects() {
        let u = unroll_cms(2);
        let incr1 = &u.instances[1];
        assert_eq!(incr1.iters, vec![Iter { symbolic: "rows".into(), index: 1 }]);
        assert_eq!(
            incr1.reg,
            Some(RegAccess { reg: "cms".into(), instance: 1, kind: RegKind::Rmw })
        );
        assert!(incr1.reads.contains(&Slot::Header("key".into())));
        assert!(incr1.writes.contains(&Slot::MetaElem("index".into(), 1)));
        assert!(incr1.writes.contains(&Slot::MetaElem("count".into(), 1)));
        assert!(incr1.ops.contains(&PrimitiveOp::Hash));
        assert!(incr1.ops.contains(&PrimitiveOp::RegisterRmw));
        assert!(incr1.guard.is_none());
        assert!(incr1.accumulators.is_empty());
    }

    #[test]
    fn set_min_is_guarded_accumulator() {
        let u = unroll_cms(2);
        let m0 = &u.instances[2];
        assert_eq!(m0.label, "set_min[0]");
        assert!(m0.guard.is_some(), "guard from the enclosing if");
        // Reads count[0] (guard) and min (guard); writes min.
        assert!(m0.reads.contains(&Slot::MetaElem("count".into(), 0)));
        assert!(m0.reads.contains(&Slot::Meta("min".into())));
        assert!(m0.writes.contains(&Slot::Meta("min".into())));
        assert_eq!(m0.accumulators, vec![Slot::Meta("min".into())]);
        assert!(m0.ops.contains(&PrimitiveOp::Compare));
        assert!(m0.reg.is_none());
    }

    #[test]
    fn guard_indices_are_substituted() {
        let u = unroll_cms(3);
        let m2 = &u.instances[5];
        match m2.guard.as_ref().unwrap() {
            Expr::Binary { lhs, .. } => match &**lhs {
                Expr::Meta { field, index } => {
                    assert_eq!(field, "count");
                    assert_eq!(index.as_deref(), Some(&Expr::Int(2)));
                }
                other => panic!("unexpected guard lhs {other:?}"),
            },
            other => panic!("unexpected guard {other:?}"),
        }
    }

    #[test]
    fn zero_iterations_yields_nothing() {
        let u = unroll_cms(0);
        assert!(u.instances.is_empty());
    }

    #[test]
    fn slot_conflict_semantics() {
        let a = Slot::MetaElem("count".into(), 1);
        let b = Slot::MetaElem("count".into(), 2);
        let w = Slot::MetaWhole("count".into());
        let s = Slot::Meta("min".into());
        assert!(!a.conflicts(&b));
        assert!(a.conflicts(&a.clone()));
        assert!(w.conflicts(&a));
        assert!(!w.conflicts(&s));
        assert!(!Slot::Header("key".into()).conflicts(&s));
    }

    #[test]
    fn inline_statements_become_instances() {
        let src = r#"
            header h { bit<32> key; }
            struct metadata { bit<32> a; bit<32> b; }
            control Main() {
                apply {
                    meta.a = hdr.key;
                    meta.b = meta.a + 1;
                }
            }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let u = instantiate(&info, &BTreeMap::new()).unwrap();
        assert_eq!(u.instances.len(), 2);
        assert_eq!(u.instances[0].label, "Main#0");
        assert!(u.instances[1].reads.contains(&Slot::Meta("a".into())));
        assert!(u.instances[0].iters.is_empty(), "an instance outside any loop is inelastic");
    }

    #[test]
    fn table_instance_reads_keys_and_unions_action_writes() {
        let src = r#"
            header h { bit<32> key; }
            struct metadata { bit<8> hit; }
            action on_hit() { meta.hit = 1; }
            action on_miss() { meta.hit = 0; }
            table cache {
                key = { hdr.key; }
                actions = { on_hit; on_miss; }
                size = 16;
            }
            control Main() { apply { cache.apply(); } }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let u = instantiate(&info, &BTreeMap::new()).unwrap();
        assert_eq!(u.instances.len(), 1);
        let t = &u.instances[0];
        assert_eq!(t.table.as_deref(), Some("cache"));
        assert!(t.ops.contains(&PrimitiveOp::TableMatch));
        assert!(t.reads.contains(&Slot::Header("key".into())));
        assert!(t.writes.contains(&Slot::Meta("hit".into())));
    }

    #[test]
    fn const_bound_loops_unroll_without_tags() {
        let src = r#"
            struct metadata { bit<32>[4] slot; }
            action put()[int i] { meta.slot[i] = 7; }
            control Main() { apply { for (i < 3) { put()[i]; } } }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let u = instantiate(&info, &BTreeMap::new()).unwrap();
        assert_eq!(u.instances.len(), 3);
        assert!(u.instances.iter().all(|a| a.iters.is_empty()));
        assert_eq!(u.instances[2].writes, vec![Slot::MetaElem("slot".into(), 2)]);
    }

    #[test]
    fn missing_bound_is_an_error() {
        let p = std::sync::Arc::new(parse(CMS).unwrap());
        let info = elaborate(&p).unwrap();
        let e = instantiate(&info, &BTreeMap::new()).unwrap_err();
        assert!(e.message.contains("no unroll bound"), "{e}");
    }

    #[test]
    fn nested_elastic_loops_tag_both_levels() {
        let src = r#"
            symbolic int outer;
            symbolic int inner;
            struct metadata { bit<32> x; }
            register<bit<32>>[16][outer] a;
            register<bit<32>>[16][inner] b;
            action touch_a()[int i] { a[i][0] = 1; }
            action touch_b()[int j] { b[j][0] = 1; }
            control Main() {
                apply {
                    for (i < outer) {
                        touch_a()[i];
                        for (j < inner) { touch_b()[j]; }
                    }
                }
            }
        "#;
        let p = std::sync::Arc::new(parse(src).unwrap());
        let info = elaborate(&p).unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert("outer".to_string(), 2);
        bounds.insert("inner".to_string(), 2);
        let u = instantiate(&info, &bounds).unwrap();
        assert_eq!(u.instances.len(), 2 + 4);
        let tb = u.instances.iter().find(|a| a.label == "touch_b[1]").unwrap();
        assert_eq!(tb.iters.len(), 2);
        assert_eq!(tb.iters[0].symbolic, "outer");
        assert_eq!(tb.iters[1].symbolic, "inner");
    }
}
