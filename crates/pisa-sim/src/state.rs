//! Runtime state of a simulated switch: register files, table entries, and
//! the packet header vector (PHV).

use std::sync::Arc;

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

/// The interpreter's side of one exact-match table: its named entries.
/// Which key holds which entry is the flat table's business: each of its
/// slots carries the tag of the entry here, so membership and key lookup
/// are one probe that every engine shares.
#[derive(Debug, Clone)]
pub struct TableState {
    /// Named entries by tag. A removed entry's place links the free list.
    entries: Vec<Named>,
    /// First free tag, or [`NO_TAG`].
    free: u32,
    pub default_action: Option<String>,
    pub size: u64,
}

#[derive(Debug, Clone)]
enum Named {
    Entry(TableEntry),
    /// Free; holds the next free tag.
    Free(u32),
}

const NO_TAG: u32 = u32::MAX;

impl TableState {
    pub(crate) fn new(default_action: Option<String>, size: u64) -> Self {
        TableState { entries: Vec::new(), free: NO_TAG, default_action, size }
    }

    /// The tag the next [`TableState::insert`] returns.
    pub(crate) fn vacant(&self) -> u32 {
        match self.free {
            NO_TAG => u32::try_from(self.entries.len()).expect("fewer than 2^32 entries"),
            tag => tag,
        }
    }

    /// Store a new entry under [`TableState::vacant`]'s tag.
    pub(crate) fn insert(&mut self, entry: TableEntry) -> u32 {
        let tag = self.vacant();
        match self.entries.get_mut(tag as usize) {
            Some(slot) => match std::mem::replace(slot, Named::Entry(entry)) {
                Named::Free(next) => self.free = next,
                Named::Entry(_) => unreachable!("free tag {tag} holds an entry"),
            },
            None => self.entries.push(Named::Entry(entry)),
        }
        tag
    }

    /// The entry stored under `tag`.
    pub(crate) fn get(&self, tag: u32) -> &TableEntry {
        match &self.entries[tag as usize] {
            Named::Entry(e) => e,
            Named::Free(_) => panic!("tag {tag} is free"),
        }
    }

    /// Replace the entry stored under `tag`.
    pub(crate) fn replace(&mut self, tag: u32, entry: TableEntry) {
        match &mut self.entries[tag as usize] {
            Named::Entry(e) => *e = entry,
            Named::Free(_) => panic!("tag {tag} is free"),
        }
    }

    /// Drop the entry under `tag`; its tag is the next one reused.
    pub(crate) fn remove(&mut self, tag: u32) {
        self.entries[tag as usize] = Named::Free(self.free);
        self.free = tag;
    }

    /// Drop every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.free = NO_TAG;
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
    fn freed_tags_are_reused_last_freed_first() {
        let entry = |a: &str| TableEntry { action: a.into(), data: vec![] };
        let mut t = TableState::new(None, 4);
        let tags: Vec<u32> = ["a", "b", "c"].map(|a| t.insert(entry(a))).into();
        assert_eq!(tags, [0, 1, 2]);
        t.remove(0);
        t.remove(2);
        assert_eq!(t.vacant(), 2);
        assert_eq!(t.insert(entry("d")), 2);
        assert_eq!(t.insert(entry("e")), 0);
        assert_eq!(t.insert(entry("f")), 3);
        t.replace(1, entry("g"));
        let actions: Vec<&str> = (0..4).map(|tag| &*t.get(tag).action).collect();
        assert_eq!(actions, ["e", "g", "d", "f"]);
        t.clear();
        assert_eq!(t.vacant(), 0);
    }
}
