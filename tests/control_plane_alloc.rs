//! The control plane's allocation budget, counted by a `#[global_allocator]`:
//! register reads and writes and `table_len` allocate nothing, a removal
//! allocates nothing, and an install allocates only what the interpreter's
//! by-name mirror keeps. A regression here (an eagerly formatted error, a
//! name turned into a `String` to look it up, a cloned key) costs more than
//! the operation itself, and no functional test would notice it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use p4all_core::Compiler;
use p4all_pisa::presets;
use p4all_sim::Switch;

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

fn allocs_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const N: usize = 4096;

const SRC: &str = r#"
    header h { bit<32> key; }
    struct metadata { bit<8> hit; bit<32> slot; bit<32> val; }
    register<bit<32>>[64] values;
    action on_hit() { meta.hit = 1; meta.val = values[meta.slot]; }
    action on_miss() { meta.hit = 0; }
    table cache {
        key = { hdr.key; }
        actions = { on_hit; on_miss; }
        size = 8192;
        default_action = on_miss;
    }
    control Main() { apply { cache.apply(); } }
"#;

fn build() -> Switch {
    let c = Compiler::new(presets::paper_eval(1 << 14)).compile(SRC).unwrap();
    let program = p4all_lang::parse(SRC).unwrap();
    Switch::build(&c.concrete, &program).unwrap()
}

#[test]
fn register_ops_and_table_len_allocate_nothing() {
    let mut sw = build();
    let mut sum = 0u64;
    let allocs = allocs_during(|| {
        for i in 0..N {
            sw.write_register("values", 0, i % 64, i as u64).unwrap();
            sum += sw.read_register("values", 0, i % 64).unwrap();
            sum += sw.table_len("cache").unwrap() as u64;
        }
    });
    assert_eq!(sum, (0..N as u64).sum::<u64>(), "reads return what was written");
    assert_eq!(allocs, 0, "{allocs} allocations in {N} write + read + table_len rounds");
}

#[test]
fn install_allocates_only_what_the_interpreter_mirror_keeps() {
    let mut sw = build();
    // Built outside the count: the key is the caller's allocation, and
    // `install_entry` takes it by value so it need not copy it.
    let keys: Vec<Vec<u64>> = (0..N as u64).map(|k| vec![k]).collect();
    let allocs = allocs_during(|| {
        for key in keys {
            sw.install_entry("cache", key, "on_hit", &[]).unwrap();
        }
    });
    assert_eq!(sw.table_len("cache").unwrap(), N);
    // One each for the action name the interpreter's entry holds; the
    // growth of the interpreter's map and of the flat table amortises to
    // a small fraction of one.
    assert!(allocs <= 2 * N, "{allocs} allocations in {N} installs");

    let allocs = allocs_during(|| {
        for k in 0..N as u64 {
            assert!(sw.remove_entry("cache", &[k]).unwrap());
        }
    });
    assert_eq!(sw.table_len("cache").unwrap(), 0);
    assert_eq!(allocs, 0, "{allocs} allocations in {N} removals of present keys");
}
