//! Runtime state of a simulated switch: register files, table entries, and
//! the packet header vector (PHV).

use std::sync::Arc;

use crate::name_map::NameMap;

/// One register array instance living in one stage.
#[derive(Debug, Clone)]
pub struct RegState {
    pub reg: String,
    pub instance: usize,
    pub stage: usize,
    pub elem_mask: u64,
    pub cells: Vec<u64>,
}

impl RegState {
    pub fn new(reg: String, instance: usize, stage: usize, elem_bits: u32, cells: u64) -> Self {
        RegState {
            reg,
            instance,
            stage,
            elem_mask: mask(elem_bits),
            cells: vec![0; cells as usize],
        }
    }

    /// Zero all cells (epoch reset).
    pub fn clear(&mut self) {
        self.cells.fill(0);
    }
}

/// Bit mask for an `n`-bit field (`n <= 64`; wider fields saturate to full
/// 64-bit significance — value semantics, not bit-exact beyond 64 bits).
pub fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// One installed match-action entry, by name. The names are shared with
/// the switch's build-time maps (an install clones their `Arc`s), so an
/// entry owns no string of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// Action to run on match (must be one of the table's actions).
    pub action: Arc<str>,
    /// Action data: metadata fields set on match before the action body
    /// runs (models P4 action parameters supplied by the control plane).
    pub data: Vec<(Arc<str>, u64)>,
}

/// Runtime state of one exact-match table.
#[derive(Debug, Clone, Default)]
pub struct TableState {
    pub entries: NameMap<Vec<u64>, TableEntry>,
    pub default_action: Option<String>,
    pub size: u64,
}

impl TableState {
    /// True when no more entries fit.
    pub fn is_full(&self) -> bool {
        (self.entries.len() as u64) >= self.size
    }
}

/// The packet header vector: one `u64` per field slot, with per-slot width
/// masks. Slot layout is fixed at switch build time.
#[derive(Debug, Clone)]
pub struct Phv {
    pub slots: Vec<u64>,
    pub masks: Vec<u64>,
}

impl Phv {
    pub fn new(masks: Vec<u64>) -> Self {
        Phv { slots: vec![0; masks.len()], masks }
    }

    /// Write a value, truncated to the slot's width.
    pub fn set(&mut self, slot: usize, value: u64) {
        self.slots[slot] = value & self.masks[slot];
    }

    pub fn get(&self, slot: usize) -> u64 {
        self.slots[slot]
    }

    /// Zero every slot (per-packet reset).
    pub fn clear(&mut self) {
        self.slots.fill(0);
    }
}

/// Scatter a packet's slot row into column `lane` of a column-major SoA
/// matrix (`slot s` of lane `l` at `soa[s * n + l]`, `n` lanes total) —
/// the gather half of batched replay.
pub(crate) fn scatter_lane(soa: &mut [u64], n: usize, lane: usize, slots: &[u64]) {
    debug_assert_eq!(soa.len(), slots.len() * n);
    debug_assert!(lane < n);
    for (s, &v) in slots.iter().enumerate() {
        soa[s * n + lane] = v;
    }
}

/// Read column `lane` of a column-major SoA matrix back into a slot row —
/// the inverse of [`scatter_lane`], used to expose a batch's final PHV.
pub(crate) fn gather_lane(soa: &[u64], n: usize, lane: usize, slots: &mut [u64]) {
    debug_assert_eq!(soa.len(), slots.len() * n);
    debug_assert!(lane < n);
    for (s, v) in slots.iter_mut().enumerate() {
        *v = soa[s * n + lane];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_widths() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(32), 0xFFFF_FFFF);
        assert_eq!(mask(64), u64::MAX);
        assert_eq!(mask(128), u64::MAX);
    }

    #[test]
    fn phv_set_truncates() {
        let mut phv = Phv::new(vec![mask(8), mask(32)]);
        phv.set(0, 0x1FF);
        assert_eq!(phv.get(0), 0xFF);
        phv.set(1, u64::MAX);
        assert_eq!(phv.get(1), 0xFFFF_FFFF);
    }

    #[test]
    fn register_clear() {
        let mut r = RegState::new("cms".into(), 0, 1, 32, 4);
        r.cells[2] = 99;
        r.clear();
        assert!(r.cells.iter().all(|&c| c == 0));
    }

    #[test]
    fn table_capacity() {
        let mut t = TableState { size: 1, ..Default::default() };
        assert!(!t.is_full());
        t.entries.insert(vec![1], TableEntry { action: "a".into(), data: vec![] });
        assert!(t.is_full());
    }
}
