//! The control plane's allocation budget, counted by a `#[global_allocator]`:
//! register reads, writes and clears, `register_instances` and `table_len`
//! allocate nothing, a removal allocates nothing, and an install allocates
//! only its action data's by-name vector, which the interpreter's entry
//! keeps, plus the amortised growth of the flat table and of the slab of
//! named entries its tags point into. The entry shares the switch's
//! interned names, and the resolved `(slot, value)` data goes into the
//! flat record through a buffer the switch reuses. An overwrite grows
//! nothing. A regression here (an eagerly formatted error, a name turned
//! into a `String` to look it up or to store it, a cloned key, a fresh
//! buffer per install) costs more than the operation itself, and no
//! functional test would notice it.

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

/// Allocations the growth of the flat table and of the named entries'
/// slab may take over `N` installs: each doubles about a dozen times on
/// the way to `N` entries, the flat table with four arrays a rebuild.
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
fn install_without_action_data_allocates_only_growth() {
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
    // The action name is an `Arc` clone: what is left is growth.
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
fn install_with_action_data_allocates_its_named_data_vector() {
    let mut sw = build();
    let keys: Vec<Vec<u64>> = (0..N as u64).map(|k| vec![k]).collect();
    let allocs = allocs_during(|| {
        for key in keys {
            let slot = key[0] % 64;
            sw.install_entry("cache", key, "on_hit", &[("slot", slot), ("val", 7)]).unwrap();
        }
    });
    assert_eq!(sw.table_len("cache").unwrap(), N);
    // The `(name, value)` vector of the interpreter's entry, whose field
    // names are `Arc` clones; the resolved pairs reuse the switch's buffer.
    assert!(allocs <= N + GROWTH, "{allocs} allocations in {N} installs with two data");

    let allocs = allocs_during(|| {
        for k in 0..N as u64 {
            assert!(sw.remove_entry("cache", &[k]).unwrap());
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations in {N} removals of entries with data");
}

#[test]
fn overwriting_present_keys_grows_nothing() {
    let mut sw = build();
    for k in 0..N as u64 {
        sw.install_entry("cache", vec![k], "on_hit", &[("slot", k % 64)]).unwrap();
    }
    let keys: Vec<Vec<u64>> = (0..N as u64).map(|k| vec![k]).collect();
    let allocs = allocs_during(|| {
        for key in keys {
            sw.install_entry("cache", key, "on_miss", &[]).unwrap();
        }
    });
    assert_eq!(sw.table_len("cache").unwrap(), N);
    assert_eq!(allocs, 0, "{allocs} allocations in {N} overwrites without action data");

    let keys: Vec<Vec<u64>> = (0..N as u64).map(|k| vec![k]).collect();
    let allocs = allocs_during(|| {
        for key in keys {
            let slot = key[0] % 64;
            sw.install_entry("cache", key, "on_hit", &[("slot", slot), ("val", 7)]).unwrap();
        }
    });
    assert_eq!(sw.table_len("cache").unwrap(), N);
    // A wider record re-lays the flat table once; the rest is the named
    // vector each entry keeps.
    assert!(allocs <= N + 1, "{allocs} allocations in {N} overwrites with two data");
}
