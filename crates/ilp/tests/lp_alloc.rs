//! The allocation budget of a chain of warm LPs, counted by a
//! `#[global_allocator]`: through one [`LpWorkspace`], each LP allocates
//! its result vector and its basis snapshot (statuses, row order and the
//! copied inverse) and nothing that grows with the model's columns — the
//! matrix and the per-LP buffers are the workspace's, built once.
//!
//! Before the workspace every LP rebuilt the equilibrated columns, one
//! vector each, and its buffers: the same chain (the same 14 dual pivots)
//! through `solve_lp_ext` made 1326 allocations for its 10 LPs, about 133
//! an LP on this 30-row, 30-column model, in the commit before the
//! workspace. Through one workspace it makes 44.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use p4all_ilp::{LinExpr, LpResult, LpWorkspace, Model, Sense};

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

const N: usize = 30;
const LPS: usize = 10;

/// `N` rows over `N` bounded columns: a diagonal plus deterministic
/// off-diagonal coefficients of both signs on about a third of the entries,
/// every column worth raising.
fn model() -> Model {
    let mut m = Model::new();
    let xs: Vec<_> = (0..N)
        .map(|j| m.continuous(format!("x{j}"), 0.0, 10.0))
        .collect();
    for i in 0..N {
        let mut row = LinExpr::term(xs[i], 2.0 + (i % 3) as f64);
        for (j, &x) in xs.iter().enumerate() {
            if j != i && (i * 7 + j * 3) % 3 == 0 {
                row += LinExpr::term(x, ((i + 2 * j) % 9) as f64 - 4.0);
            }
        }
        m.le(format!("r{i}"), row, 10.0 + (i % 5) as f64 * 4.0);
    }
    m.set_objective(
        LinExpr::sum(
            xs.iter()
                .enumerate()
                .map(|(j, &x)| LinExpr::term(x, 1.0 + (j % 4) as f64 * 0.5)),
        ),
        Sense::Maximize,
    );
    m
}

/// Ten LPs, each warm from the last one's basis with one more upper bound
/// halved, as a dive or a path down the tree runs them.
#[test]
fn a_warm_chain_through_one_workspace_allocates_its_results_only() {
    let model = model();
    let mut bounds: Vec<(f64, f64)> = model.vars().iter().map(|v| (v.lb, v.ub)).collect();
    let mut ws = LpWorkspace::new(&model);
    let root = ws.solve(&bounds, None).unwrap();
    let LpResult::Optimal { x: mut cur, .. } = root.result else {
        panic!("{:?}", root.result)
    };
    let mut basis = root.basis.expect("root basis");
    let (mut total, mut pivots) = (0, 0);
    for k in 0..LPS {
        // A variable strictly between its bounds is basic: halving it
        // makes its row primal infeasible, which the dual simplex repairs.
        let j = (0..N)
            .find(|&j| cur[j] > 1e-6 && cur[j] < bounds[j].1 - 1e-6)
            .expect("a basic variable");
        bounds[j].1 = cur[j] / 2.0;
        let (sol, allocs) = allocs_during(|| ws.solve(&bounds, Some(&basis)).unwrap());
        assert!(
            sol.stats.warm && !sol.stats.fell_back,
            "LP {k}: {:?}",
            sol.stats
        );
        total += allocs;
        pivots += sol.stats.pivots;
        let LpResult::Optimal { x, .. } = sol.result else {
            panic!("LP {k}: {:?}", sol.result)
        };
        cur = x;
        basis = sol.basis.expect("an optimal LP leaves a basis");
    }
    assert!(pivots >= LPS, "the chain must pivot ({pivots} dual pivots)");
    // Four an LP (`x`, the snapshot's statuses, row order and inverse),
    // and room for the first warm LP to grow a buffer the cold root LP
    // left empty.
    assert!(total <= 5 * LPS, "{total} allocations for {LPS} warm LPs");
}
