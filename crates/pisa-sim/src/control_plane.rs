//! Control-plane API: table entry management and register access.
//!
//! Mirrors what a switch OS agent (or P4Runtime) exposes: install/remove
//! exact-match entries with action data, and read/write/clear register
//! state. Application runtimes (e.g. [`crate::netcache_rt`]) are built on
//! these calls.

use std::sync::Arc;

use crate::flat_table::Insert;
use crate::interp::{SimError, Switch};
use crate::state::TableEntry;

impl Switch {
    /// Install an exact-match entry: `key` (one value per key field) →
    /// `action`, with `data` assignments applied to metadata on match
    /// (modelling P4 action parameters). A key of any other length is
    /// [`SimError::KeyArity`]. A datum for a field under an install
    /// contract ([`Switch::install_contracts`]) must be below the
    /// contract's limit; one at or past it is
    /// [`SimError::DataOutOfRange`]. A refused install stores nothing.
    pub fn install_entry(
        &mut self,
        table: &str,
        key: Vec<u64>,
        action: &str,
        data: &[(&str, u64)],
    ) -> Result<(), SimError> {
        // Install time is the last moment a string may be hashed, and each
        // name is hashed once: the lookup that validates it also yields the
        // dense id the fast engines run on.
        let tid = self.table_id(table)?;
        let expected = self.ctables[tid].key_words();
        if key.len() != expected {
            let table = table.to_string();
            return Err(SimError::KeyArity { table, expected, got: key.len() });
        }
        // The interpreter's entry shares the names of the maps that
        // resolved them: an `Arc` clone, no string of its own.
        let (action_name, &action_id) = self
            .compiled
            .action_ids
            .get_key_value(action)
            .ok_or_else(|| SimError::UnknownAction(action.to_string()))?;
        let action = Arc::clone(action_name);
        let mut named = Vec::with_capacity(data.len());
        let dense = &mut self.install_data;
        dense.clear();
        for &(field, value) in data {
            let (name, &slot) = self
                .meta_scalars
                .get_key_value(field)
                .ok_or_else(|| SimError::UnknownField(format!("meta.{field}")))?;
            let limit = self.compiled.data_limit[slot];
            if value >= limit {
                let field = format!("meta.{field}");
                return Err(SimError::DataOutOfRange { field, value, limit });
            }
            named.push((Arc::clone(name), value));
            dense.push((slot as u32, value));
        }
        // One store, one probe: the flat table both fast engines read (the
        // native engine through a view of it) holds the resolved record,
        // and its slot's tag points at the interpreter's by-name entry.
        let t = &mut self.tables[tid];
        let size = usize::try_from(t.size).unwrap_or(usize::MAX);
        let entry = TableEntry { action, data: named };
        match self.ctables[tid].insert(&key, action_id, dense, t.vacant(), size) {
            Insert::Replaced(tag) => t.replace(tag, entry),
            Insert::Placed => {
                t.insert(entry);
            }
            Insert::Refused => return Err(SimError::TableFull(table.to_string())),
        }
        Ok(())
    }

    /// The install contracts of the program, as `(field, limit)`: each
    /// field is scalar metadata that only action data sets and that
    /// indexes a register, and every datum installed for it must be below
    /// `limit`, the smallest length of those registers. They are what lets
    /// the build prove such an index in bounds (`dump_bytecode()`'s first
    /// line names the ones it relied on).
    pub fn install_contracts(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.compiled.contracts.iter().map(|c| (c.field.as_str(), c.limit))
    }

    /// Remove one entry; returns whether it existed.
    pub fn remove_entry(&mut self, table: &str, key: &[u64]) -> Result<bool, SimError> {
        let tid = self.table_id(table)?;
        let tag = self.ctables[tid].remove(key);
        if let Some(tag) = tag {
            self.tables[tid].remove(tag);
        }
        Ok(tag.is_some())
    }

    /// Drop every entry of a table.
    pub fn clear_table(&mut self, table: &str) -> Result<(), SimError> {
        let tid = self.table_id(table)?;
        self.tables[tid].clear();
        self.ctables[tid].clear();
        Ok(())
    }

    /// Current entry count of a table.
    pub fn table_len(&self, table: &str) -> Result<usize, SimError> {
        Ok(self.ctables[self.table_id(table)?].len())
    }

    /// Read one register cell.
    pub fn read_register(&self, reg: &str, instance: usize, cell: usize) -> Result<u64, SimError> {
        let r = &self.registers[self.reg_idx(reg, instance)?];
        r.cells.get(cell).copied().ok_or_else(|| SimError::IndexOutOfBounds {
            what: format!("{reg}[{instance}]"),
            index: cell as u64,
            len: r.cells.len(),
        })
    }

    /// Write one register cell.
    pub fn write_register(
        &mut self,
        reg: &str,
        instance: usize,
        cell: usize,
        value: u64,
    ) -> Result<(), SimError> {
        let idx = self.reg_idx(reg, instance)?;
        let r = &mut self.registers[idx];
        let len = r.cells.len();
        let slot = r.cells.get_mut(cell).ok_or_else(|| SimError::IndexOutOfBounds {
            what: format!("{reg}[{instance}]"),
            index: cell as u64,
            len,
        })?;
        *slot = value & r.elem_mask;
        Ok(())
    }

    /// Zero every cell of every instance of `reg` (epoch reset).
    pub fn clear_register(&mut self, reg: &str) {
        for &i in self.reg_index.get(reg).into_iter().flatten().flatten() {
            self.registers[i].clear();
        }
    }

    /// Cell count of a register instance.
    pub fn register_cells(&self, reg: &str, instance: usize) -> Result<usize, SimError> {
        Ok(self.registers[self.reg_idx(reg, instance)?].cells.len())
    }

    /// Number of placed instances of `reg`.
    pub fn register_instances(&self, reg: &str) -> usize {
        self.reg_index.get(reg).map_or(0, |by_instance| by_instance.iter().flatten().count())
    }
}

#[cfg(test)]
mod tests {
    use crate::flat_table::Insert;
    use crate::interp::{Backend, SimError, Switch};
    use p4all_core::Compiler;
    use p4all_pisa::presets;

    const TBL: &str = r#"
        header h { bit<32> key; }
        struct metadata { bit<8> hit; bit<32> slot; bit<32> val; }
        register<bit<32>>[16] values;
        action on_hit() { meta.hit = 1; }
        action on_miss() { meta.hit = 0; }
        table cache {
            key = { hdr.key; }
            actions = { on_hit; on_miss; }
            size = 2;
            default_action = on_miss;
        }
        action fetch() {
            meta.val = values[meta.slot];
        }
        control Main() {
            apply {
                cache.apply();
                if (meta.hit == 1) { fetch(); }
            }
        }
    "#;

    fn build() -> Switch {
        let c = Compiler::new(presets::paper_eval(1 << 14)).compile(TBL).unwrap();
        let program = p4all_lang::parse(TBL).unwrap();
        Switch::build(&c.concrete, &program).unwrap()
    }

    #[test]
    fn entry_hit_runs_action_with_data() {
        let mut sw = build();
        sw.write_register("values", 0, 5, 777).unwrap();
        sw.install_entry("cache", vec![42], "on_hit", &[("slot", 5)]).unwrap();
        // Hit.
        sw.begin_packet();
        sw.set_header("key", 42).unwrap();
        sw.run_packet().unwrap();
        assert_eq!(sw.meta("hit").unwrap(), 1);
        assert_eq!(sw.meta("val").unwrap(), 777);
        // Miss.
        sw.begin_packet();
        sw.set_header("key", 43).unwrap();
        sw.run_packet().unwrap();
        assert_eq!(sw.meta("hit").unwrap(), 0);
        assert_eq!(sw.meta("val").unwrap(), 0);
    }

    #[test]
    fn table_capacity_enforced() {
        let mut sw = build();
        sw.install_entry("cache", vec![1], "on_hit", &[]).unwrap();
        sw.install_entry("cache", vec![2], "on_hit", &[]).unwrap();
        let e = sw.install_entry("cache", vec![3], "on_hit", &[]).unwrap_err();
        assert!(matches!(e, SimError::TableFull(_)));
        // Replacing an existing key is fine even when full.
        sw.install_entry("cache", vec![2], "on_hit", &[("slot", 1)]).unwrap();
        assert_eq!(sw.table_len("cache").unwrap(), 2);
        // Remove frees space.
        assert!(sw.remove_entry("cache", &[1]).unwrap());
        sw.install_entry("cache", vec![3], "on_hit", &[]).unwrap();
    }

    #[test]
    fn invalid_installs_rejected() {
        let mut sw = build();
        assert!(matches!(
            sw.install_entry("nope", vec![1], "on_hit", &[]),
            Err(SimError::UnknownTable(_))
        ));
        assert!(matches!(
            sw.install_entry("cache", vec![1], "fetch", &[]),
            Err(SimError::UnknownAction(_)) // fetch is not a cache action
        ));
        assert!(matches!(
            sw.install_entry("cache", vec![1], "on_hit", &[("ghost", 0)]),
            Err(SimError::UnknownField(_))
        ));
    }

    /// A key with more or fewer words than the table has key fields could
    /// never match; it is refused, and takes no room from valid keys.
    #[test]
    fn wrong_arity_install_is_refused() {
        let mut sw = build();
        for key in [vec![1, 2], vec![]] {
            let got = key.len();
            let e = sw.install_entry("cache", key, "on_hit", &[]).unwrap_err();
            assert_eq!(e, SimError::KeyArity { table: "cache".into(), expected: 1, got });
            assert_eq!(sw.table_len("cache").unwrap(), 0);
        }
        sw.install_entry("cache", vec![1], "on_hit", &[]).unwrap();
        sw.install_entry("cache", vec![2], "on_hit", &[]).unwrap();
        assert_eq!(sw.table_len("cache").unwrap(), 2);
    }

    /// A call that is wrong in several ways reports the first of unknown
    /// table, key arity, unknown action, unknown field, full table — with
    /// these texts.
    #[test]
    fn install_errors_keep_precedence_and_text() {
        let mut sw = build();
        sw.install_entry("cache", vec![1], "on_hit", &[]).unwrap();
        sw.install_entry("cache", vec![2], "on_hit", &[]).unwrap();
        let mut err = |table: &str, key: &[u64], action: &str, field: &str| {
            sw.install_entry(table, key.to_vec(), action, &[(field, 0)]).unwrap_err().to_string()
        };
        assert_eq!(err("nope", &[3, 3], "fetch", "ghost"), "unknown table `nope`");
        let arity = "table `cache` takes a 1-word key, not 2";
        assert_eq!(err("cache", &[3, 3], "fetch", "ghost"), arity);
        assert_eq!(err("cache", &[3], "fetch", "ghost"), "unknown action `fetch`");
        assert_eq!(err("cache", &[3], "on_hit", "ghost"), "unknown field `meta.ghost`");
        assert_eq!(err("cache", &[3], "on_hit", "slot"), "table `cache` is full");
        // None of the refused calls left anything behind.
        assert_eq!(sw.table_len("cache").unwrap(), 2);
        sw.begin_packet();
        sw.set_header("key", 3).unwrap();
        sw.run_packet().unwrap();
        assert_eq!(sw.meta("hit").unwrap(), 0);
    }

    /// Run one packet with `key` on `backend`; returns `(hit, val)`.
    fn replay(sw: &mut Switch, backend: Backend, key: u64) -> (u64, u64) {
        sw.set_backend(backend);
        sw.begin_packet();
        sw.set_header("key", key).unwrap();
        sw.run_packet().unwrap();
        (sw.meta("hit").unwrap(), sw.meta("val").unwrap())
    }

    /// The interpreter shares the flat table's probe but not its record:
    /// it reads the action and data *names* of its own entry. So a wrong
    /// action id or data slot written into the record the fast engines
    /// run on shows as a divergence on the next packet.
    #[test]
    fn a_corrupted_flat_record_diverges_from_the_interpreter() {
        let mut sw = build();
        sw.write_register("values", 0, 5, 777).unwrap();
        sw.install_entry("cache", vec![42], "on_hit", &[("slot", 5)]).unwrap();
        assert_eq!(replay(&mut sw, Backend::Interp, 42), (1, 777));
        assert_eq!(replay(&mut sw, Backend::Compiled, 42), (1, 777));

        let tid = sw.table_id("cache").unwrap();
        let on_hit = sw.compiled.action_ids["on_hit"];
        let on_miss = sw.compiled.action_ids["on_miss"];
        let (slot, val) = (sw.meta_scalars["slot"] as u32, sw.meta_scalars["val"] as u32);
        let corrupt = |sw: &mut Switch, action: u32, data: &[(u32, u64)]| {
            let done = sw.ctables[tid].insert(&[42], action, data, u32::MAX, usize::MAX);
            assert_eq!(done, Insert::Replaced(0), "the interpreter's entry is untouched");
            let interp = replay(sw, Backend::Interp, 42);
            (interp, replay(sw, Backend::Compiled, 42))
        };
        // The wrong action: the interpreter still runs `on_hit`.
        assert_eq!(corrupt(&mut sw, on_miss, &[(slot, 5)]), ((1, 777), (0, 0)));
        // The wrong data slot: `meta.slot` stays 0 on the bytecode engine.
        assert_eq!(corrupt(&mut sw, on_hit, &[(val, 5)]), ((1, 777), (1, 0)));
        // The record rewritten right agrees again.
        assert_eq!(corrupt(&mut sw, on_hit, &[(slot, 5)]), ((1, 777), (1, 777)));
    }

    #[test]
    fn register_read_write_clear() {
        let mut sw = build();
        sw.write_register("values", 0, 3, 9).unwrap();
        assert_eq!(sw.read_register("values", 0, 3).unwrap(), 9);
        sw.clear_register("values");
        assert_eq!(sw.read_register("values", 0, 3).unwrap(), 0);
        assert_eq!(sw.register_cells("values", 0).unwrap(), 16);
        assert_eq!(sw.register_instances("values"), 1);
        assert!(sw.read_register("values", 0, 99).is_err());
    }
}
