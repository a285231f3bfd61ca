//! # p4all-core — the P4All elastic compiler
//!
//! Implementation of the compiler from *Elastic Switch Programming with
//! P4All* (HotNets 2020). Given a P4All program (see `p4all-lang`) and a
//! PISA target specification (see `p4all-pisa`), the compiler:
//!
//! 1. **elaborates** the program, classifying symbolic values into count
//!    and size roles ([`elaborate`]);
//! 2. computes **upper bounds for loop unrolling** from the dependency
//!    structure and the target's stage/ALU budget (§4.2, [`bounds`]);
//! 3. **unrolls** to those bounds ([`ir`]) and builds the **dependency
//!    graph** with precedence and exclusion edges ([`depgraph`]);
//! 4. generates the **ILP** of Figure 10 ([`ilpgen`]) and solves it with
//!    the exact MILP solver in `p4all-ilp`;
//! 5. extracts the **layout** — concrete symbolic values, stage placement,
//!    memory allocation ([`solution`]) — and emits loop-free **concrete
//!    P4** ([`codegen`]).
//!
//! A greedy first-fit allocator ([`greedy`]) serves as the ablation
//! baseline the evaluation compares against.
//!
//! ## Example
//!
//! ```
//! use p4all_core::Compiler;
//! use p4all_pisa::presets;
//!
//! let src = r#"
//!     symbolic int rows;
//!     symbolic int cols;
//!     assume rows >= 1 && rows <= 4;
//!     optimize rows * cols;
//!     header h { bit<32> key; }
//!     struct metadata { bit<32>[rows] index; }
//!     register<bit<32>>[cols][rows] cms;
//!     action bump()[int i] {
//!         meta.index[i] = hash(hdr.key, cols);
//!         cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
//!     }
//!     control Main() { apply { for (i < rows) { bump()[i]; } } }
//! "#;
//! let c = Compiler::new(presets::paper_example()).compile(src).unwrap();
//! assert!(c.layout.symbol_values["rows"] >= 1);
//! assert!(c.layout.symbol_values["cols"] >= 1);
//! ```

pub mod bounds;
pub mod codegen;
pub mod depgraph;
pub mod elaborate;
pub mod explain;
pub mod greedy;
pub mod ilpgen;
pub mod ir;
pub mod joint;
pub mod passes;
pub mod pipeline;
pub mod solution;
pub mod verify;

pub use codegen::{loc, print_p4, ConcreteAction, ConcreteProgram, ConcreteRegister};
pub use explain::{explain_infeasible, ExplainedRow, Infeasibility};
pub use ilpgen::{DerivedBound, ResourceKind, RowProvenance};
pub use joint::{
    merge_tenants, verify_joint, JointCompilation, JointSource, TenantProgram,
    TenantReport,
};
pub use passes::{CompileCtx, CompileTrace, PassRecord};
pub use pipeline::{
    evaluate_utility, Compilation, CompileError, CompileOptions, Compiler, SolveStats, Timings,
};
pub use solution::{Layout, Placement, RegisterAllocation};
pub use verify::{assumes_hold, ilp_dominates_greedy, verify_layout};
