//! The allocation budget of one encode, counted by a `#[global_allocator]`:
//! NetCache (a 3-row CMS, up to 4 KV slices) on `paper_eval(1<<15)`, a
//! model of 189 variables, 249 rows and 1 563 nonzeros.
//!
//! The encoder builds each row's terms straight into the one vector the
//! model keeps, formats each name into one buffer, and records a `Copy`
//! origin per row instead of its provenance prose, which is rendered only
//! when asked. So a row costs two allocations (name and terms) and a
//! variable one (its name). When every row also rendered its provenance,
//! held a one-term vector per term and was normalized into a second
//! vector, this encode made 4 745 allocations; now it makes 906.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use p4all_core::bounds::{all_upper_bounds, DEFAULT_MAX_UNROLL};
use p4all_core::depgraph::build_full;
use p4all_core::elaborate::elaborate;
use p4all_core::ilpgen::encode;
use p4all_core::ir::instantiate;
use p4all_elastic::apps::netcache;
use p4all_pisa::presets;

struct Counting;

thread_local! {
    /// Allocations made by this thread. Per thread, because the harness
    /// runs tests (and its own bookkeeping) on others.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations one encode may make: the 906 it makes, plus room for a
/// standard library whose formatting or collections allocate a little
/// differently.
const BUDGET: usize = 1_000;

#[test]
fn one_netcache_encode_stays_within_its_allocation_budget() {
    let mut opts = netcache::NetCacheOptions::default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    let target = presets::paper_eval(1 << 15);
    let program = Arc::new(p4all_lang::parse(&netcache::source(&opts)).expect("parses"));
    let info = elaborate(&program).expect("elaborates");
    let bounds = all_upper_bounds(&info, &target, DEFAULT_MAX_UNROLL).expect("bounds");
    let unrolled = instantiate(&info, &bounds).expect("unrolls");
    let graph = build_full(&unrolled);

    let (enc, allocs) = allocs_during(|| encode(&info, &unrolled, &graph, &target));
    let stats = enc.expect("encodes").model.stats();
    assert_eq!(
        (stats.num_vars, stats.num_constraints, stats.num_nonzeros),
        (189, 249, 1563),
        "the budget is for this model"
    );
    assert!(allocs <= BUDGET, "{allocs} allocations for one encode, budget {BUDGET}");
}
