//! Seeded generation of well-formed random P4All programs.
//!
//! The generator builds [`Program`] ASTs directly (never source text), so
//! every emitted program is well-formed *by construction*: symbolic roles
//! stay disjoint (count symbolics only bound loops, instance counts, and
//! metadata arrays; size symbolics only size register cells and hash
//! ranges), every declared symbolic is used, every action touches at most
//! one register, controls are declared before use with the entry control
//! last, and all names are unique. Source text is derived through the
//! pretty-printer, which the round-trip property (phase 0 of the oracle)
//! holds to `parse(print(p)) == p` modulo spans.
//!
//! A program is a random mix of four block families, glued by `Main`:
//!
//! - **sketch** — the paper's elastic count-min shape: `rows{k}` ×
//!   `cols{k}` register matrix, hash+RMW update loop, optional guarded
//!   min-scan;
//! - **accumulator** — a fixed-size register with hashed-slot or
//!   fixed-cell read-modify-write (the delta-sum merge workhorse);
//! - **arith** — chains of metadata assignments over random expression
//!   trees, with `/ hdr.d` as an injectable runtime fault;
//! - **table** — an exact-match table with action data bound to metadata
//!   and control-plane-installed entries, one datum of which then indexes
//!   a register (an install contract).
//!
//! Traces are generated with a *prefix property*: packet `i` consumes a
//! fixed number of RNG draws, so truncating a trace during shrinking
//! preserves the packets that remain.

use p4all_lang::ast::*;
use p4all_lang::printer::print_program;
use p4all_lang::Span;
use p4all_pisa::{presets, TargetSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which preset target a case compiles against. Stored by name in corpus
/// metadata so a shrunk case replays on the exact same budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetChoice {
    /// 3 tiny stages — exercises the infeasible path.
    PaperExample,
    /// 10 stages, 8 Kb per stage.
    PaperEval13,
    /// 10 stages, 32 Kb per stage — roomy, mostly feasible.
    PaperEval15,
    /// 6 mid-size stages.
    SmallSwitch,
}

impl TargetChoice {
    pub fn to_spec(self) -> TargetSpec {
        match self {
            TargetChoice::PaperExample => presets::paper_example(),
            TargetChoice::PaperEval13 => presets::paper_eval(1 << 13),
            TargetChoice::PaperEval15 => presets::paper_eval(1 << 15),
            TargetChoice::SmallSwitch => presets::small_switch(),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            TargetChoice::PaperExample => "paper_example",
            TargetChoice::PaperEval13 => "paper_eval_13",
            TargetChoice::PaperEval15 => "paper_eval_15",
            TargetChoice::SmallSwitch => "small_switch",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper_example" => Some(TargetChoice::PaperExample),
            "paper_eval_13" => Some(TargetChoice::PaperEval13),
            "paper_eval_15" => Some(TargetChoice::PaperEval15),
            "small_switch" => Some(TargetChoice::SmallSwitch),
            _ => None,
        }
    }
}

/// One control-plane entry to install before replay (both backends get
/// identical copies).
#[derive(Debug, Clone, PartialEq)]
pub struct EntrySpec {
    pub table: String,
    pub key: u64,
    pub action: String,
    pub data: Vec<(String, u64)>,
}

/// Everything needed to reproduce one fuzz sample: the program AST, the
/// target, the control-plane state, and the trace coordinates.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    pub seed: u64,
    pub program: Program,
    pub target: TargetChoice,
    pub entries: Vec<EntrySpec>,
    pub trace_seed: u64,
    pub trace_len: usize,
}

impl FuzzCase {
    /// The program as source text (the pretty-printer output).
    pub fn source(&self) -> String {
        print_program(&self.program)
    }
}

/// Header fields every generated program carries (never shrunk, so traces
/// stay replayable on any shrunk descendant of a case).
pub const HEADER_FIELDS: [(&str, u32); 4] = [("key", 32), ("val", 32), ("d", 32), ("aux", 16)];

/// A random trace: per packet `[key, val, d, aux]`, with `d == 0` possible
/// (division faults) at roughly 1-in-5.
pub fn gen_trace(trace_seed: u64, len: usize) -> Vec<[u64; 4]> {
    let mut rng = StdRng::seed_from_u64(trace_seed);
    (0..len)
        .map(|_| {
            let k = rng.gen_range(0u64..24);
            let v = rng.gen_range(0u64..1000);
            let d = rng.gen_range(0u64..5);
            let a = rng.gen_range(0u64..256);
            [k, v, d, a]
        })
        .collect()
}

/// A multi-tenant fuzz sample: 2–3 independently generated programs, each
/// wrapped as a weighted tenant and compiled jointly into one pipeline.
///
/// Sub-cases are ordinary [`generate`] outputs; their own target and trace
/// coordinates are superseded by the joint ones here (all tenants replay
/// the same trace, each through its own namespaced header fields).
#[derive(Debug, Clone)]
pub struct JointFuzzCase {
    pub seed: u64,
    /// `(tenant name, utility weight, sub-case)`.
    pub tenants: Vec<(String, f64, FuzzCase)>,
    pub target: TargetChoice,
    pub trace_seed: u64,
    pub trace_len: usize,
}

/// Generate one joint case from a seed. Pure, like [`generate`], and
/// salted so joint case `i` does not reuse single case `i`'s programs.
pub fn generate_joint(seed: u64, trace_len: usize) -> JointFuzzCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a6f_696e_745f_7031);
    let n = rng.gen_range(2usize..=3);
    // Joint pipelines need headroom, so bias toward the roomy presets;
    // the tight ones stay in rotation to exercise the infeasible path.
    let target = match rng.gen_range(0u32..8) {
        0 => TargetChoice::PaperExample,
        1 | 2 => TargetChoice::PaperEval13,
        _ => TargetChoice::PaperEval15,
    };
    const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
    let tenants = ["ta", "tb", "tc"][..n]
        .iter()
        .map(|name| {
            let sub_seed = rng.gen::<u64>();
            let weight = WEIGHTS[rng.gen_range(0usize..WEIGHTS.len())];
            (name.to_string(), weight, generate(sub_seed, trace_len))
        })
        .collect();
    let trace_seed = rng.gen::<u64>();
    JointFuzzCase { seed, tenants, target, trace_seed, trace_len }
}

// ------------------------------------------------------- AST shorthands

fn sp() -> Span {
    Span::default()
}

fn int(v: u64) -> Expr {
    Expr::Int(v)
}

fn hdr(f: &str) -> Expr {
    Expr::Header { field: f.into() }
}

fn meta(f: &str) -> Expr {
    Expr::Meta { field: f.into(), index: None }
}

fn meta_at(f: &str, idx: Expr) -> Expr {
    Expr::Meta { field: f.into(), index: Some(Box::new(idx)) }
}

fn ivar() -> Expr {
    Expr::IndexVar("i".into())
}

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Binary { op, lhs: Box::new(a), rhs: Box::new(b) }
}

fn reg_read(reg: &str, instance: Option<Expr>, cell: Expr) -> Expr {
    Expr::RegisterRead { reg: reg.into(), instance: instance.map(Box::new), cell: Box::new(cell) }
}

fn assign(lhs: LValue, rhs: Expr) -> Stmt {
    Stmt::Assign { lhs, rhs, span: sp() }
}

fn call(name: &str, index: Option<Expr>) -> Stmt {
    Stmt::CallAction { name: name.into(), index, span: sp() }
}

fn apply_control(name: &str) -> Stmt {
    Stmt::ApplyControl { name: name.into(), span: sp() }
}

// ------------------------------------------------------------ generator

/// Generate one fuzz case from a seed. Pure: the same seed always yields
/// the identical case (byte-identical source, entries, and trace).
pub fn generate(seed: u64, trace_len: usize) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let target = match rng.gen_range(0u32..8) {
        0 => TargetChoice::PaperExample,
        1 | 2 => TargetChoice::PaperEval13,
        3..=5 => TargetChoice::PaperEval15,
        _ => TargetChoice::SmallSwitch,
    };

    let mut p = Program {
        headers: vec![HeaderDecl {
            name: "pkt".into(),
            fields: HEADER_FIELDS.iter().map(|&(n, b)| (n.to_string(), b)).collect(),
            span: sp(),
        }],
        ..Program::default()
    };

    let mut n_sketch = rng.gen_range(0usize..=2);
    let n_acc = rng.gen_range(0usize..=2);
    let n_arith = rng.gen_range(0usize..=2);
    let with_table = rng.gen_bool(0.5);
    if n_sketch + n_acc + n_arith == 0 && !with_table {
        n_sketch = 1;
    }

    let mut main_body = Vec::new();
    let mut opt_terms: Vec<Expr> = Vec::new();
    // Scalar metadata fields already *written* by the time later blocks
    // run — legal leaves for arith expression trees.
    let mut scalar_pool: Vec<String> = Vec::new();
    let mut entries = Vec::new();

    if with_table {
        gen_table(&mut rng, &mut p, &mut main_body, &mut scalar_pool, &mut entries);
    }
    for k in 0..n_sketch {
        gen_sketch(&mut rng, k, &mut p, &mut main_body, &mut opt_terms, &mut scalar_pool);
    }
    for k in 0..n_acc {
        gen_acc(&mut rng, k, &mut p, &mut main_body);
    }
    for k in 0..n_arith {
        gen_arith(&mut rng, k, &mut p, &mut main_body, &mut scalar_pool);
    }

    p.optimize = opt_terms.into_iter().reduce(|a, b| bin(BinOp::Add, a, b));
    p.controls.push(ControlDecl { name: "Main".into(), body: main_body, span: sp() });

    let trace_seed = rng.gen::<u64>();
    FuzzCase { seed, program: p, target, entries, trace_seed, trace_len }
}

/// The elastic count-min shape: `rows{k}` hash+RMW chains over a
/// `cols{k}`-wide register matrix, plus an optional guarded min-scan that
/// leaves the estimate in `sk{k}_min`.
fn gen_sketch(
    rng: &mut StdRng,
    k: usize,
    p: &mut Program,
    main_body: &mut Vec<Stmt>,
    opt_terms: &mut Vec<Expr>,
    scalar_pool: &mut Vec<String>,
) {
    let rows = format!("rows{k}");
    let cols = format!("cols{k}");
    let reg = format!("sk{k}");
    let idx = format!("sk{k}_idx");
    let cnt = format!("sk{k}_cnt");
    let min = format!("sk{k}_min");

    let rows_hi = rng.gen_range(2u64..=3);
    let cols_lo = [8u64, 16, 32][rng.gen_range(0usize..3)];

    p.symbolics.push(SymbolicDecl { name: rows.clone(), span: sp() });
    p.symbolics.push(SymbolicDecl { name: cols.clone(), span: sp() });
    p.assumes.push(Assume {
        expr: bin(
            BinOp::And,
            bin(BinOp::Ge, Expr::Symbolic(rows.clone()), int(1)),
            bin(BinOp::Le, Expr::Symbolic(rows.clone()), int(rows_hi)),
        ),
        span: sp(),
    });
    let cols_bound = bin(BinOp::Ge, Expr::Symbolic(cols.clone()), int(cols_lo));
    p.assumes.push(Assume {
        expr: if rng.gen_bool(0.5) {
            bin(
                BinOp::And,
                cols_bound,
                bin(BinOp::Le, Expr::Symbolic(cols.clone()), int(cols_lo * 4)),
            )
        } else {
            cols_bound
        },
        span: sp(),
    });

    p.metadata.push(MetaField {
        name: idx.clone(),
        bits: 32,
        count: Some(Size::Symbolic(rows.clone())),
        span: sp(),
    });
    p.metadata.push(MetaField {
        name: cnt.clone(),
        bits: 32,
        count: Some(Size::Symbolic(rows.clone())),
        span: sp(),
    });
    p.registers.push(RegisterDecl {
        name: reg.clone(),
        elem_bits: 32,
        cells: Size::Symbolic(cols.clone()),
        instances: Some(Size::Symbolic(rows.clone())),
        span: sp(),
    });

    // hash inputs: always the key, sometimes salted with aux.
    let mut hash_inputs = vec![hdr("key")];
    if rng.gen_bool(0.3) {
        hash_inputs.push(hdr("aux"));
    }
    let delta = if rng.gen_bool(0.7) { int(1) } else { hdr("val") };
    let cell = meta_at(&idx, ivar());
    p.actions.push(ActionDecl {
        name: format!("sk{k}_incr"),
        indexed: true,
        index_param: Some("i".into()),
        body: vec![
            Stmt::HashAssign {
                lhs: LValue::Meta { field: idx.clone(), index: Some(ivar()) },
                inputs: hash_inputs,
                range: Size::Symbolic(cols.clone()),
                span: sp(),
            },
            assign(
                LValue::Register {
                    reg: reg.clone(),
                    instance: Some(ivar()),
                    cell: Box::new(cell.clone()),
                },
                bin(BinOp::Add, reg_read(&reg, Some(ivar()), cell.clone()), delta),
            ),
            assign(
                LValue::Meta { field: cnt.clone(), index: Some(ivar()) },
                reg_read(&reg, Some(ivar()), cell),
            ),
        ],
        span: sp(),
    });
    p.controls.push(ControlDecl {
        name: format!("sk{k}_upd"),
        body: vec![Stmt::For {
            var: "i".into(),
            bound: Size::Symbolic(rows.clone()),
            body: vec![call(&format!("sk{k}_incr"), Some(ivar()))],
            span: sp(),
        }],
        span: sp(),
    });
    main_body.push(apply_control(&format!("sk{k}_upd")));

    if rng.gen_bool(0.6) {
        p.metadata.push(MetaField { name: min.clone(), bits: 32, count: None, span: sp() });
        p.actions.push(ActionDecl {
            name: format!("sk{k}_take"),
            indexed: true,
            index_param: Some("i".into()),
            body: vec![assign(
                LValue::Meta { field: min.clone(), index: None },
                meta_at(&cnt, ivar()),
            )],
            span: sp(),
        });
        p.controls.push(ControlDecl {
            name: format!("sk{k}_scan"),
            body: vec![Stmt::For {
                var: "i".into(),
                bound: Size::Symbolic(rows.clone()),
                body: vec![Stmt::If {
                    cond: bin(
                        BinOp::Or,
                        bin(BinOp::Lt, meta_at(&cnt, ivar()), meta(&min)),
                        bin(BinOp::Eq, meta(&min), int(0)),
                    ),
                    then_body: vec![call(&format!("sk{k}_take"), Some(ivar()))],
                    else_body: vec![],
                    span: sp(),
                }],
                span: sp(),
            }],
            span: sp(),
        });
        main_body.push(apply_control(&format!("sk{k}_scan")));
        scalar_pool.push(min);
    }

    let w = rng.gen_range(1u64..=4);
    let term = bin(BinOp::Mul, Expr::Symbolic(rows), Expr::Symbolic(cols));
    opt_terms.push(if w == 1 { term } else { bin(BinOp::Mul, int(w), term) });
}

/// A fixed-size accumulator register: hashed-slot or fixed-cell RMW,
/// called straight from `Main`.
fn gen_acc(rng: &mut StdRng, k: usize, p: &mut Program, main_body: &mut Vec<Stmt>) {
    let reg = format!("acc{k}");
    let cells = [8u64, 16, 64][rng.gen_range(0usize..3)];
    let elem_bits = if rng.gen_bool(0.5) { 32 } else { 64 };
    p.registers.push(RegisterDecl {
        name: reg.clone(),
        elem_bits,
        cells: Size::Const(cells),
        instances: None,
        span: sp(),
    });
    let delta = if rng.gen_bool(0.5) { hdr("val") } else { int(rng.gen_range(1u64..8)) };
    let body = if rng.gen_bool(0.6) {
        let slot = format!("acc{k}_slot");
        p.metadata.push(MetaField { name: slot.clone(), bits: 32, count: None, span: sp() });
        let cell = meta(&slot);
        vec![
            Stmt::HashAssign {
                lhs: LValue::Meta { field: slot.clone(), index: None },
                inputs: vec![hdr("key")],
                range: Size::Const(cells),
                span: sp(),
            },
            assign(
                LValue::Register { reg: reg.clone(), instance: None, cell: Box::new(cell.clone()) },
                bin(BinOp::Add, reg_read(&reg, None, cell), delta),
            ),
        ]
    } else {
        let cell = int(rng.gen_range(0u64..cells));
        vec![assign(
            LValue::Register { reg: reg.clone(), instance: None, cell: Box::new(cell.clone()) },
            bin(BinOp::Add, reg_read(&reg, None, cell), delta),
        )]
    };
    p.actions.push(ActionDecl {
        name: format!("acc{k}_add"),
        indexed: false,
        index_param: None,
        body,
        span: sp(),
    });
    main_body.push(call(&format!("acc{k}_add"), None));
}

/// A chain of metadata assignments over random expression trees; the
/// whole chain is optionally guarded by a header-dependent branch in
/// `Main`.
fn gen_arith(
    rng: &mut StdRng,
    k: usize,
    p: &mut Program,
    main_body: &mut Vec<Stmt>,
    scalar_pool: &mut Vec<String>,
) {
    let n_terms = rng.gen_range(1usize..=3);
    let mut stmts_in_main = Vec::new();
    for j in 0..n_terms {
        let t = format!("t{k}_{j}");
        p.metadata.push(MetaField { name: t.clone(), bits: 32, count: None, span: sp() });
        let rhs = gen_expr(rng, 2, scalar_pool);
        let body_stmt = assign(LValue::Meta { field: t.clone(), index: None }, rhs);
        let body = if rng.gen_bool(0.3) {
            vec![Stmt::If {
                cond: gen_cond(rng, scalar_pool),
                then_body: vec![body_stmt],
                else_body: if rng.gen_bool(0.5) {
                    vec![assign(
                        LValue::Meta { field: t.clone(), index: None },
                        gen_leaf(rng, scalar_pool),
                    )]
                } else {
                    vec![]
                },
                span: sp(),
            }]
        } else {
            vec![body_stmt]
        };
        p.actions.push(ActionDecl {
            name: format!("t{k}_mix{j}"),
            indexed: false,
            index_param: None,
            body,
            span: sp(),
        });
        stmts_in_main.push(call(&format!("t{k}_mix{j}"), None));
        scalar_pool.push(t);
    }
    p.controls.push(ControlDecl {
        name: format!("t{k}_chain"),
        body: stmts_in_main,
        span: sp(),
    });
    let apply = apply_control(&format!("t{k}_chain"));
    if rng.gen_bool(0.25) {
        main_body.push(Stmt::If {
            cond: bin(BinOp::Lt, hdr("aux"), int(rng.gen_range(16u64..256))),
            then_body: vec![apply],
            else_body: vec![],
            span: sp(),
        });
    } else {
        main_body.push(apply);
    }
}

/// A leaf for arith trees: a header field, an already-written scalar
/// metadata field, or a constant.
fn gen_leaf(rng: &mut StdRng, pool: &[String]) -> Expr {
    match rng.gen_range(0u32..5) {
        0 => hdr("key"),
        1 => hdr("val"),
        2 => hdr("aux"),
        3 if !pool.is_empty() => meta(&pool[rng.gen_range(0usize..pool.len())]),
        _ => int(rng.gen_range(0u64..1000)),
    }
}

/// A random arithmetic expression tree of bounded depth. Division appears
/// with a constant divisor or `hdr.d` — the latter is the fault injector
/// (traces include `d == 0`, which must drop the packet identically on
/// both backends).
fn gen_expr(rng: &mut StdRng, depth: u32, pool: &[String]) -> Expr {
    if depth == 0 || rng.gen_bool(0.35) {
        return gen_leaf(rng, pool);
    }
    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.gen_range(0usize..4)];
    let lhs = gen_expr(rng, depth - 1, pool);
    let rhs = if op == BinOp::Div {
        if rng.gen_bool(0.3) {
            hdr("d")
        } else {
            int(rng.gen_range(1u64..16))
        }
    } else {
        gen_expr(rng, depth - 1, pool)
    };
    bin(op, lhs, rhs)
}

/// A boolean guard: one comparison, or two glued with `&&`/`||`.
fn gen_cond(rng: &mut StdRng, pool: &[String]) -> Expr {
    let cmp = |rng: &mut StdRng, pool: &[String]| {
        let op = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne]
            [rng.gen_range(0usize..6)];
        let lhs = gen_leaf(rng, pool);
        let rhs = gen_leaf(rng, pool);
        bin(op, lhs, rhs)
    };
    let first = cmp(rng, pool);
    if rng.gen_bool(0.3) {
        let op = if rng.gen_bool(0.5) { BinOp::And } else { BinOp::Or };
        let second = cmp(rng, pool);
        bin(op, first, second)
    } else {
        first
    }
}

/// An exact-match table keyed on `hdr.key` with action data (`tbl_boost`)
/// bound by installed entries, plus the entries themselves, and a read of
/// `tbl_vals[tbl_boost]` after the apply.
fn gen_table(
    rng: &mut StdRng,
    p: &mut Program,
    main_body: &mut Vec<Stmt>,
    scalar_pool: &mut Vec<String>,
    entries: &mut Vec<EntrySpec>,
) {
    for (name, bits) in [("tbl_boost", 32u32), ("tbl_flag", 8), ("tbl_acc", 32)] {
        p.metadata.push(MetaField { name: name.into(), bits, count: None, span: sp() });
    }
    p.actions.push(ActionDecl {
        name: "tbl_mark".into(),
        indexed: false,
        index_param: None,
        body: vec![
            assign(LValue::Meta { field: "tbl_flag".into(), index: None }, int(1)),
            assign(
                LValue::Meta { field: "tbl_acc".into(), index: None },
                bin(BinOp::Add, meta("tbl_acc"), meta("tbl_boost")),
            ),
        ],
        span: sp(),
    });
    p.actions.push(ActionDecl {
        name: "tbl_skip".into(),
        indexed: false,
        index_param: None,
        body: vec![assign(LValue::Meta { field: "tbl_flag".into(), index: None }, int(0))],
        span: sp(),
    });
    p.tables.push(TableDecl {
        name: "watch".into(),
        keys: vec![hdr("key")],
        actions: vec!["tbl_mark".into(), "tbl_skip".into()],
        size: 64,
        default_action: Some("tbl_skip".into()),
        span: sp(),
    });
    main_body.push(Stmt::ApplyTable { name: "watch".into(), span: sp() });
    scalar_pool.push("tbl_acc".into());
    // Only installs set `tbl_boost`, and it indexes `tbl_vals`: an install
    // contract (`tbl_boost < 64`) the oracle tries out of range.
    p.metadata.push(MetaField { name: "tbl_seen".into(), bits: 32, count: None, span: sp() });
    p.registers.push(RegisterDecl {
        name: "tbl_vals".into(),
        elem_bits: 32,
        cells: Size::Const(64),
        instances: None,
        span: sp(),
    });
    p.actions.push(ActionDecl {
        name: "tbl_fetch".into(),
        indexed: false,
        index_param: None,
        body: vec![assign(
            LValue::Meta { field: "tbl_seen".into(), index: None },
            reg_read("tbl_vals", None, meta("tbl_boost")),
        )],
        span: sp(),
    });
    main_body.push(call("tbl_fetch", None));

    let n = rng.gen_range(0usize..8);
    let mut keys: Vec<u64> = Vec::new();
    for _ in 0..n {
        let k = rng.gen_range(0u64..24);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    for k in keys {
        entries.push(EntrySpec {
            table: "watch".into(),
            key: k,
            action: "tbl_mark".into(),
            data: vec![("tbl_boost".into(), rng.gen_range(1u64..50))],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20u64 {
            let a = generate(seed, 32);
            let b = generate(seed, 32);
            assert_eq!(a.source(), b.source(), "seed {seed}");
            assert_eq!(a.entries, b.entries, "seed {seed}");
            assert_eq!(a.trace_seed, b.trace_seed, "seed {seed}");
            assert_eq!(gen_trace(a.trace_seed, 32), gen_trace(b.trace_seed, 32));
        }
    }

    #[test]
    fn traces_have_the_prefix_property() {
        let long = gen_trace(7, 64);
        let short = gen_trace(7, 16);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn generated_programs_parse_back_to_the_same_ast() {
        for seed in 0..50u64 {
            let case = generate(seed, 8);
            let src = case.source();
            let parsed = p4all_lang::parse(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {}\n{src}", e.render(&src)));
            assert_eq!(
                parsed.strip_spans(),
                case.program.strip_spans(),
                "seed {seed} round-trip mismatch\n{src}"
            );
        }
    }

    #[test]
    fn joint_generation_is_deterministic_and_distinct_from_single() {
        for seed in 0..10u64 {
            let a = generate_joint(seed, 16);
            let b = generate_joint(seed, 16);
            assert!((2..=3).contains(&a.tenants.len()), "seed {seed}");
            assert_eq!(a.tenants.len(), b.tenants.len(), "seed {seed}");
            for ((na, wa, ca), (nb, wb, cb)) in a.tenants.iter().zip(&b.tenants) {
                assert_eq!(na, nb);
                assert_eq!(wa, wb);
                assert_eq!(ca.source(), cb.source(), "seed {seed}");
                assert_eq!(ca.entries, cb.entries, "seed {seed}");
            }
            assert_eq!(a.trace_seed, b.trace_seed);
            // The salt keeps joint tenant programs decorrelated from the
            // single-program case at the same seed.
            let single = generate(seed, 16);
            assert_ne!(a.tenants[0].2.source(), single.source(), "seed {seed}");
        }
    }

    #[test]
    fn target_choice_name_round_trips() {
        for t in [
            TargetChoice::PaperExample,
            TargetChoice::PaperEval13,
            TargetChoice::PaperEval15,
            TargetChoice::SmallSwitch,
        ] {
            assert_eq!(TargetChoice::parse(t.as_str()), Some(t));
        }
        assert_eq!(TargetChoice::parse("nope"), None);
    }
}
