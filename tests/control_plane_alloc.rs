//! The control plane's allocation budget, counted by a `#[global_allocator]`:
//! register reads, writes and clears, `register_instances` and `table_len`
//! allocate nothing, a removal allocates nothing, and an install allocates
//! only its action data's two vectors (the interpreter's by-name one and
//! the resolved one the flat table copies) plus the tables' amortised
//! growth: the interpreter's mirror shares the switch's interned names. A regression
//! here (an eagerly formatted error, a name turned into a `String` to look
//! it up or to store it, a cloned key) costs more than the operation
//! itself, and no functional test would notice it.

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

/// Allocations the growth of the interpreter's map and of the flat table
/// may take over `N` installs: each doubles about a dozen times on the
/// way to `N` entries, the flat table with three arrays a rebuild.
const GROWTH: usize = 64;

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

    let mut instances = 0;
    let allocs = allocs_during(|| {
        for _ in 0..N {
            sw.clear_register("values");
            instances += sw.register_instances("values");
        }
    });
    assert_eq!(instances, N, "one instance of `values`");
    assert_eq!(sw.read_register("values", 0, 1).unwrap(), 0, "cleared");
    assert_eq!(allocs, 0, "{allocs} allocations in {N} clear + register_instances rounds");
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
    // The key moves into the interpreter's map, the action name is an
    // `Arc` clone: what is left is growth.
    assert!(allocs <= GROWTH, "{allocs} allocations in {N} installs without action data");

    let allocs = allocs_during(|| {
        for k in 0..N as u64 {
            assert!(sw.remove_entry("cache", &[k]).unwrap());
        }
    });
    assert_eq!(sw.table_len("cache").unwrap(), 0);
    assert_eq!(allocs, 0, "{allocs} allocations in {N} removals of present keys");
}

#[test]
fn install_with_action_data_allocates_its_two_data_vectors() {
    let mut sw = build();
    let keys: Vec<Vec<u64>> = (0..N as u64).map(|k| vec![k]).collect();
    let allocs = allocs_during(|| {
        for key in keys {
            let slot = key[0] % 64;
            sw.install_entry("cache", key, "on_hit", &[("slot", slot), ("val", 7)]).unwrap();
        }
    });
    assert_eq!(sw.table_len("cache").unwrap(), N);
    // The `(name, value)` vector of the interpreter's entry and the
    // `(slot, value)` vector the flat table copies into its record: the
    // field names in the first are `Arc` clones.
    assert!(allocs <= 2 * N + GROWTH, "{allocs} allocations in {N} installs with two data");

    let allocs = allocs_during(|| {
        for k in 0..N as u64 {
            assert!(sw.remove_entry("cache", &[k]).unwrap());
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations in {N} removals of entries with data");
}
