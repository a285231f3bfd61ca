//! NetCache runtime: the control loop that turns a compiled NetCache data
//! plane into a working key-value cache.
//!
//! The data plane (built from the elastic NetCache program) provides:
//! a count-min sketch that tracks per-key popularity and leaves the
//! minimum estimate in a metadata field, plus an exact-match cache table
//! whose hit action reads the value registers. This runtime implements the
//! controller: it promotes keys whose estimate crosses a threshold into
//! free key-value slots, and resets the sketch every epoch (as NetCache's
//! controller does to age out stale popularity).

use crate::interp::{SimError, Switch};
use crate::name_map::NameMap;

/// Field/register/table naming contract between the P4All program and the
/// runtime, plus controller parameters.
#[derive(Debug, Clone)]
pub struct NetCacheConfig {
    /// Exact-match cache table name.
    pub cache_table: String,
    /// Action installed for cached keys.
    pub hit_action: String,
    /// Metadata flag the hit action sets to 1.
    pub hit_flag_meta: String,
    /// Metadata field holding the CMS minimum estimate.
    pub min_meta: String,
    /// Metadata fields the table entry data populates: value-store slice
    /// (register instance) and index within it.
    pub slice_meta: String,
    pub idx_meta: String,
    /// Metadata field the data plane writes the cached value into.
    pub value_meta: String,
    /// Key-value value register and CMS register names.
    pub kv_register: String,
    pub cms_register: String,
    /// Header field carrying the key.
    pub key_header: String,
    /// Promote a key once its estimate reaches this count.
    pub promote_threshold: u64,
    /// Reset the CMS every this many packets (0 = never).
    pub epoch_packets: usize,
}

impl Default for NetCacheConfig {
    fn default() -> Self {
        NetCacheConfig {
            cache_table: "cache".into(),
            hit_action: "cache_hit".into(),
            hit_flag_meta: "cache_hit".into(),
            min_meta: "cms_min".into(),
            slice_meta: "kv_slice".into(),
            idx_meta: "kv_idx".into(),
            value_meta: "kv_val".into(),
            kv_register: "kvs".into(),
            cms_register: "cms".into(),
            key_header: "key".into(),
            promote_threshold: 4,
            epoch_packets: 100_000,
        }
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCacheStats {
    pub packets: u64,
    pub hits: u64,
    pub misses: u64,
    pub promotions: u64,
    pub epochs: u64,
}

impl NetCacheStats {
    pub fn hit_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.hits as f64 / self.packets as f64
        }
    }
}

/// The controller plus the switch it drives.
pub struct NetCacheRuntime {
    pub switch: Switch,
    cfg: NetCacheConfig,
    /// key -> (slice, idx)
    cache: NameMap<u64, (usize, usize)>,
    free: Vec<(usize, usize)>,
    stats: NetCacheStats,
    since_epoch: usize,
}

impl NetCacheRuntime {
    /// Wrap a compiled NetCache switch. Discovers the key-value slot pool
    /// from the placed `kv_register` instances.
    pub fn new(switch: Switch, cfg: NetCacheConfig) -> Result<Self, SimError> {
        let slices = switch.register_instances(&cfg.kv_register);
        let mut free = Vec::new();
        for slice in 0..slices {
            // Instances may be non-contiguous if some iterations were
            // dropped; probe each.
            if let Ok(cells) = switch.register_cells(&cfg.kv_register, slice) {
                for idx in 0..cells {
                    free.push((slice, idx));
                }
            }
        }
        free.reverse(); // pop from slice 0 upward
        Ok(NetCacheRuntime {
            switch,
            cfg,
            cache: NameMap::default(),
            free,
            stats: NetCacheStats::default(),
            since_epoch: 0,
        })
    }

    /// Number of key-value slots (the cache capacity).
    pub fn capacity(&self) -> usize {
        self.free.len() + self.cache.len()
    }

    /// Process one key request. Returns `(hit, value)` where `value` is the
    /// cached value on a hit.
    pub fn process(&mut self, key: u64, value: u64) -> Result<(bool, u64), SimError> {
        self.stats.packets += 1;
        self.switch.begin_packet();
        self.switch.set_header(&self.cfg.key_header, key)?;
        self.switch.run_packet()?;
        let hit = self.switch.meta(&self.cfg.hit_flag_meta)? == 1;
        let mut got = 0;
        if hit {
            self.stats.hits += 1;
            got = self.switch.meta(&self.cfg.value_meta)?;
        } else {
            self.stats.misses += 1;
            let est = self.switch.meta(&self.cfg.min_meta)?;
            if est >= self.cfg.promote_threshold && !self.cache.contains_key(&key) {
                if let Some((slice, idx)) = self.free.pop() {
                    self.promote(key, value, slice, idx)?;
                }
            }
        }
        self.since_epoch += 1;
        if self.cfg.epoch_packets > 0 && self.since_epoch >= self.cfg.epoch_packets {
            self.since_epoch = 0;
            self.stats.epochs += 1;
            self.switch.clear_register(&self.cfg.cms_register);
        }
        Ok((hit, got))
    }

    fn promote(&mut self, key: u64, value: u64, slice: usize, idx: usize) -> Result<(), SimError> {
        self.switch.write_register(&self.cfg.kv_register, slice, idx, value)?;
        self.switch.install_entry(
            &self.cfg.cache_table,
            vec![key],
            &self.cfg.hit_action,
            &[
                (self.cfg.slice_meta.as_str(), slice as u64),
                (self.cfg.idx_meta.as_str(), idx as u64),
            ],
        )?;
        self.cache.insert(key, (slice, idx));
        self.stats.promotions += 1;
        Ok(())
    }

    /// Currently cached key count.
    pub fn cached_keys(&self) -> usize {
        self.cache.len()
    }

    /// The underlying switch, for state inspection (register dumps,
    /// stage-cost telemetry) without tearing the runtime down.
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    pub fn stats(&self) -> NetCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4all_core::Compiler;
    use p4all_pisa::presets;

    /// A compact NetCache written in the P4All dialect: elastic CMS plus an
    /// elastic sliced key-value store behind an exact-match cache table.
    pub const NETCACHE_MINI: &str = r#"
        symbolic int rows;
        symbolic int cols;
        symbolic int kv_slices;
        symbolic int kv_cols;
        assume rows >= 2 && rows <= 2;
        assume cols >= 8 && cols <= 8;
        assume kv_slices >= 1;
        assume kv_cols >= 4 && kv_cols <= 4;
        optimize 0.4 * (rows * cols) + 0.6 * (kv_slices * kv_cols);

        header h { bit<32> key; }
        struct metadata {
            bit<32>[rows] index;
            bit<32>[rows] count;
            bit<32> cms_min;
            bit<8> cache_hit;
            bit<32> kv_slice;
            bit<32> kv_idx;
            bit<64> kv_val;
        }
        register<bit<32>>[cols][rows] cms;
        register<bit<64>>[kv_cols][kv_slices] kvs;

        action cache_hit_act() { meta.cache_hit = 1; }
        action cache_miss_act() { meta.cache_hit = 0; }
        table cache {
            key = { hdr.key; }
            actions = { cache_hit_act; cache_miss_act; }
            size = 1024;
            default_action = cache_miss_act;
        }

        action incr()[int i] {
            meta.index[i] = hash(hdr.key, cols);
            cms[i][meta.index[i]] = cms[i][meta.index[i]] + 1;
            meta.count[i] = cms[i][meta.index[i]];
        }
        action set_min()[int i] { meta.cms_min = meta.count[i]; }
        action kv_read()[int j] {
            meta.kv_val = kvs[j][meta.kv_idx];
        }

        control lookup() { apply { cache.apply(); } }
        control sketch() { apply { for (i < rows) { incr()[i]; } } }
        control minimum() {
            apply {
                for (i < rows) {
                    if (meta.count[i] < meta.cms_min || meta.cms_min == 0) { set_min()[i]; }
                }
            }
        }
        control serve() {
            apply {
                for (j < kv_slices) {
                    if (meta.cache_hit == 1 && meta.kv_slice == j) { kv_read()[j]; }
                }
            }
        }
        control Main() {
            apply {
                lookup.apply();
                sketch.apply();
                minimum.apply();
                serve.apply();
            }
        }
    "#;

    fn build_runtime(threshold: u64) -> NetCacheRuntime {
        let target = presets::paper_eval(1 << 14);
        let c = Compiler::new(target).compile(NETCACHE_MINI).unwrap();
        let program = p4all_lang::parse(NETCACHE_MINI).unwrap();
        let sw = Switch::build(&c.concrete, &program).unwrap();
        let cfg = NetCacheConfig {
            hit_action: "cache_hit_act".into(),
            promote_threshold: threshold,
            epoch_packets: 0,
            ..Default::default()
        };
        NetCacheRuntime::new(sw, cfg).unwrap()
    }

    #[test]
    fn hot_key_gets_cached_and_served() {
        let mut rt = build_runtime(3);
        assert!(rt.capacity() >= 4);
        // 5 requests for the same key: first ones miss, once the estimate
        // reaches 3 the key is promoted, later requests hit.
        let mut results = Vec::new();
        for _ in 0..5 {
            results.push(rt.process(42, 4242).unwrap());
        }
        assert!(!results[0].0, "first request must miss");
        let (hit, val) = results[4];
        assert!(hit, "request after promotion must hit");
        assert_eq!(val, 4242, "served value must match the stored one");
        assert_eq!(rt.stats().promotions, 1);
    }

    #[test]
    fn cold_keys_never_promote() {
        // Threshold far above what one pass of distinct keys can reach,
        // even with every key colliding into the same CMS column.
        let mut rt = build_runtime(500);
        for key in 0..100 {
            let (hit, _) = rt.process(key, key).unwrap();
            assert!(!hit);
        }
        assert_eq!(rt.stats().promotions, 0);
        assert_eq!(rt.stats().hit_rate(), 0.0);
    }

    #[test]
    fn capacity_limits_promotions() {
        let mut rt = build_runtime(2);
        let cap = rt.capacity() as u64;
        // Make 3*cap keys hot.
        for round in 0..4 {
            for key in 0..(3 * cap) {
                let _ = round;
                rt.process(key, key * 10).unwrap();
            }
        }
        assert_eq!(rt.stats().promotions, cap, "promotions stop at capacity");
        assert_eq!(rt.cached_keys() as u64, cap);
    }

    #[test]
    fn skew_beats_uniform_hit_rate() {
        let mut hot = build_runtime(3);
        // Hot workload: 90% of traffic on 3 keys.
        for i in 0..3000u64 {
            let key = if i % 10 < 9 { i % 3 } else { 100 + i % 50 };
            hot.process(key, key).unwrap();
        }
        let mut cold = build_runtime(3);
        // Uniform over 200 keys.
        for i in 0..3000u64 {
            cold.process(i * 37 % 200, i).unwrap();
        }
        assert!(
            hot.stats().hit_rate() > 0.5,
            "skewed hit rate too low: {}",
            hot.stats().hit_rate()
        );
        assert!(
            hot.stats().hit_rate() > cold.stats().hit_rate() + 0.2,
            "skew ({}) must beat uniform ({})",
            hot.stats().hit_rate(),
            cold.stats().hit_rate()
        );
    }

    #[test]
    fn epoch_reset_clears_sketch() {
        let target = presets::paper_eval(1 << 14);
        let c = Compiler::new(target).compile(NETCACHE_MINI).unwrap();
        let program = p4all_lang::parse(NETCACHE_MINI).unwrap();
        let sw = Switch::build(&c.concrete, &program).unwrap();
        let cfg = NetCacheConfig {
            hit_action: "cache_hit_act".into(),
            promote_threshold: 1000, // never promote
            epoch_packets: 10,
            ..Default::default()
        };
        let mut rt = NetCacheRuntime::new(sw, cfg).unwrap();
        for _ in 0..10 {
            rt.process(7, 7).unwrap();
        }
        assert_eq!(rt.stats().epochs, 1);
        // After the reset, the estimate restarts: next packet sees count 1.
        rt.process(7, 7).unwrap();
        assert_eq!(rt.switch.meta("cms_min").unwrap(), 1);
    }
}
