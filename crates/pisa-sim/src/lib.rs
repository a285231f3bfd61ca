//! # p4all-sim — behavioral PISA pipeline simulator
//!
//! Executes the concrete, loop-free programs produced by the P4All
//! compiler (`p4all-core`) with PISA semantics: stage-by-stage processing
//! on one PHV, persistent per-stage register state, exact-
//! match tables with control-plane-installed entries, and deterministic
//! per-destination hash functions.
//!
//! The paper evaluated on a Barefoot Tofino switch; this simulator is the
//! substitute substrate (see DESIGN.md) that lets every end-to-end
//! experiment — most importantly the NetCache cache-hit-rate quality
//! surface of Figure 4 — run as real packet processing over the compiled
//! artifact rather than as an analytic model.

//!
//! Three execution backends share one build pipeline:
//!
//! - [`interp`] — the tree-walking **reference interpreter**, the oracle
//!   every fast path is differentially tested against;
//! - [`compiled`] — the **bytecode engine**: field names resolved to
//!   dense PHV slots, expressions flattened to a register-machine
//!   instruction stream, table dispatch by precomputed index. The default.
//! - [`native`] — the **native engine**: [`codegen`] prints the built
//!   switch as monomorphized dependency-free Rust, the in-container
//!   `rustc` compiles it to a cdylib, and packets run through a `dlopen`'d
//!   function call. Opt-in; requires `rustc` on PATH at runtime
//!   ([`rustc_available`]).
//!
//! [`replay`] adds `Switch::run_trace`: whole-trace replay, optionally
//! sharded by flow hash across worker threads with delta-sum state
//! merging, reporting pkts/sec + per-stage cost in [`SimStats`].

pub mod codegen;
pub mod compiled;
pub mod control_plane;
pub(crate) mod flat_table;
pub mod interp;
mod name_map;
pub mod native;
pub mod netcache_rt;
pub mod replay;
pub mod state;

pub use interp::{Backend, SimError, Switch};
pub use name_map::{NameHasher, NameMap};
pub use native::{rustc_available, NativeError, NativeReport};
pub use netcache_rt::{NetCacheConfig, NetCacheRuntime, NetCacheStats};
pub use replay::SimStats;
pub use state::{Phv, RegState, TableEntry, TableState};
