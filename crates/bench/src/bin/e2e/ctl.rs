//! The control plane beside the data plane: a FIFO-evicting cache
//! controller over the per-packet API, and timed bursts of table and
//! register operations, each checked by reading back what was written.

use std::collections::{HashMap, VecDeque};

use p4all_lang::ast::Program;
use p4all_sim::Switch;

use crate::manifest::{Controller, KvNames};
use crate::record::{Op, Recorder};
use crate::sim::{kv_slots, value_of};
use crate::spans::Tracer;

/// Operations of each kind in one burst: four times the NetCache store's
/// capacity on the replay target, so a burst lasts milliseconds.
pub const BURST: usize = 4096;

/// Burst keys sit above every key a trace draws, inside 32 bits.
const BURST_KEY_BASE: u64 = 0x8000_0000;

/// The driver's model of the cache: which keys are installed, in which
/// slot, in insertion order. It predicts every packet's hit or miss.
pub struct Cache {
    cached: HashMap<u64, (usize, usize)>,
    fifo: VecDeque<u64>,
    free: Vec<(usize, usize)>,
    cursor: usize,
    since_clear: usize,
}

impl Cache {
    pub fn new(sw: &Switch, kv: &KvNames) -> Cache {
        let mut free = kv_slots(sw, &kv.kv_register);
        free.reverse();
        Cache { cached: HashMap::new(), fifo: VecDeque::new(), free, cursor: 0, since_clear: 0 }
    }

    /// Serve the next `spec.chunk` keys. On a miss whose sketch estimate
    /// qualifies, evict the oldest key if the store is full, then write
    /// the value and install the entry. Returns the packets whose hit
    /// flag the model did not predict.
    fn serve(
        &mut self,
        sw: &mut Switch,
        kv: &KvNames,
        spec: &Controller,
        keys: &[u64],
    ) -> Result<u64, String> {
        let err = |e: p4all_sim::SimError| e.to_string();
        let mut mispredicted = 0;
        for _ in 0..spec.chunk {
            let key = keys[self.cursor];
            self.cursor = (self.cursor + 1) % keys.len();
            sw.begin_packet();
            sw.set_header(&kv.key_field, key).map_err(err)?;
            sw.run_packet().map_err(err)?;
            let hit = sw.meta(&kv.hit_meta).map_err(err)? == 1;
            let known = self.cached.contains_key(&key);
            mispredicted += u64::from(hit != known);
            if !hit && !known && sw.meta(&kv.min_meta).map_err(err)? >= spec.threshold {
                let slot = match self.free.pop() {
                    Some(slot) => slot,
                    None => {
                        let oldest = self.fifo.pop_front().ok_or("cache has no slots")?;
                        sw.remove_entry(&kv.table, &[oldest]).map_err(err)?;
                        self.cached.remove(&oldest).ok_or("evicted key was not cached")?
                    }
                };
                sw.write_register(&kv.kv_register, slot.0, slot.1, value_of(key)).map_err(err)?;
                sw.install_entry(
                    &kv.table,
                    vec![key],
                    &kv.hit_action,
                    &[
                        (kv.slice_meta.as_str(), slot.0 as u64),
                        (kv.idx_meta.as_str(), slot.1 as u64),
                    ],
                )
                .map_err(err)?;
                self.cached.insert(key, slot);
                self.fifo.push_back(key);
            }
            self.since_clear += 1;
            if self.since_clear >= spec.clear_every {
                self.since_clear = 0;
                sw.clear_register(&kv.cms_register);
            }
        }
        Ok(mispredicted)
    }
}

/// One controller chunk as a checked operation, and its rate.
pub fn controller_chunk(
    cache: &mut Cache,
    sw: &mut Switch,
    kv: &KvNames,
    spec: &Controller,
    keys: &[u64],
    tr: &mut Tracer,
    rec: &mut Recorder,
) {
    let mut op = Op::new("controller chunk");
    let (result, secs) = tr.leaf("ctl.controller", || cache.serve(sw, kv, spec, keys));
    match result {
        Err(e) => op.fail(e),
        Ok(mispredicted) => {
            op.expect(mispredicted == 0, || {
                format!("{mispredicted} packets hit or missed against the model")
            });
            let len = sw.table_len(&kv.table).unwrap_or(usize::MAX);
            op.expect(len == cache.cached.len(), || {
                format!("table holds {len} entries, the model {}", cache.cached.len())
            });
            rec.push("ctl.controller_pkts_per_s", spec.chunk as f64 / secs);
        }
    }
    rec.finish(op);
}

/// A timed burst on `sw`: `BURST` installs into its first table, as many
/// register writes then reads on its first register, then the removes.
/// Reads must return what was written and `table_len` must follow every
/// step. With `native` the switch has its native engine loaded, installs
/// are mirrored into it, and only that install rate is recorded.
pub fn burst(
    sw: &mut Switch,
    program: &Program,
    native: bool,
    tr: &mut Tracer,
    rec: &mut Recorder,
) {
    let mut op = Op::new(if native { "control burst, native loaded" } else { "control burst" });
    let mut ops = 0usize;
    let mut busy = 0.0;

    // The first table with an action other than its default.
    let table = program.tables.iter().find_map(|t| {
        let action = t.actions.iter().find(|a| Some(*a) != t.default_action.as_ref())?;
        Some((t.name.as_str(), action.as_str(), t.keys.len(), t.size as usize))
    });
    let before = table.map(|(name, ..)| sw.table_len(name).unwrap_or(0));
    let room = |size: usize| BURST.min(size.saturating_sub(before.unwrap_or(0)));
    let key = |i: usize, arity: usize| vec![BURST_KEY_BASE + i as u64; arity];

    if let Some((name, action, arity, size)) = table {
        let n = room(size);
        let (result, secs) = tr.leaf("ctl.install", || {
            (0..n).try_for_each(|i| sw.install_entry(name, key(i, arity), action, &[]))
        });
        op.expect(result.is_ok(), || format!("install failed: {result:?}"));
        let len = sw.table_len(name).unwrap_or(0);
        op.expect(len == before.unwrap_or(0) + n, || format!("{len} entries after {n} installs"));
        rec.push(
            if native { "ctl.native.install_per_s" } else { "ctl.install_per_s" },
            n as f64 / secs,
        );
        ops += n;
        busy += secs;
    }

    if !native {
        // The first register the layout gave at least one instance.
        let placed = program.registers.iter().find_map(|r| {
            let cells = sw.register_cells(&r.name, 0).ok()?;
            Some((r.name.as_str(), 0, cells.max(1)))
        });
        if let Some((reg, instance, cells)) = placed {
            // Small values: they fit a register of any width.
            let value = |i: usize| (i % 251 + 1) as u64;
            let mut written = vec![None; cells];
            let (result, secs) = tr.leaf("ctl.reg_write", || {
                (0..BURST).try_for_each(|i| {
                    written[i % cells] = Some(value(i));
                    sw.write_register(reg, instance, i % cells, value(i))
                })
            });
            op.expect(result.is_ok(), || format!("register write failed: {result:?}"));
            rec.push("ctl.reg_write_per_s", BURST as f64 / secs);
            let (wrong, read_secs) = tr.leaf("ctl.reg_read", || {
                (0..BURST)
                    .filter(|i| {
                        sw.read_register(reg, instance, i % cells).ok() != written[i % cells]
                    })
                    .count()
            });
            op.expect(wrong == 0, || format!("{wrong} reads differ from what was written"));
            rec.push("ctl.reg_read_per_s", BURST as f64 / read_secs);
            ops += 2 * BURST;
            busy += secs + read_secs;

            // The span is the measurement: `ctl.clear_register_s`.
            tr.leaf("ctl.clear_register", || sw.clear_register(reg));
            op.expect(sw.read_register(reg, instance, 0).ok() == Some(0), || {
                "clear left a value".into()
            });
        }
    }

    if let Some((name, _, arity, size)) = table {
        let n = room(size);
        let (removed, secs) = tr.leaf("ctl.remove", || {
            (0..n).filter(|&i| sw.remove_entry(name, &key(i, arity)).ok() == Some(true)).count()
        });
        op.expect(removed == n, || format!("{removed} of {n} entries removed"));
        let len = sw.table_len(name).unwrap_or(usize::MAX);
        op.expect(Some(len) == before, || {
            format!("{len} entries left, {before:?} before the burst")
        });
        if !native {
            rec.push("ctl.remove_per_s", n as f64 / secs);
        }
        ops += n;
        busy += secs;
    }

    if !native && busy > 0.0 {
        rec.push("ctl_ops_per_s", ops as f64 / busy);
    }
    rec.finish(op);
}
