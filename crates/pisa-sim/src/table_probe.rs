// The hash and the probe of the flat exact-match table, and the view the
// generated native code reads a table through: `flat_table.rs` includes
// this file and the native codegen pastes it into every generated crate,
// so the two engines cannot hash or probe differently. `core` only.

pub const EMPTY: u8 = 0;
pub const FULL: u8 = 1;
pub const TOMB: u8 = 2;

/// Multiply-xor over the key words by 2^64/φ. Keys are switch-internal
/// values, not attacker-chosen, so nothing DoS-resistant is needed.
#[inline(always)]
pub fn table_hash(key: &[u64]) -> u64 {
    let mut h = 0u64;
    for &w in key {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

/// The home slot of `key` among `cap` (a power of two, at least 2) slots:
/// the top bits of the hash (Fibonacci hashing), since its low bits see
/// only a key's low bits and aligned keys would share few home slots.
#[inline(always)]
pub fn home(key: &[u64], cap: usize) -> usize {
    (table_hash(key) >> (64 - cap.trailing_zeros())) as usize
}

/// The slot holding `key`, `kw` words, among the slot states `ctrl` and
/// keys `keys`: a hash and a linear probe, which ends at an empty slot
/// since at most 7/8 of the slots are ever used.
#[inline(always)]
pub fn probe(ctrl: &[u8], keys: &[u64], kw: usize, key: &[u64]) -> Option<usize> {
    if ctrl.is_empty() {
        return None;
    }
    let mut i = home(key, ctrl.len());
    loop {
        match ctrl[i] {
            EMPTY => return None,
            FULL if keys[i * kw..i * kw + kw] == *key => return Some(i),
            _ => i = (i + 1) & (ctrl.len() - 1),
        }
    }
}

/// A slot's record: the action id and the action data as flat `(PHV
/// slot, value)` word pairs, after a head word that packs the action id
/// (low half) and the pair count (high half).
#[inline(always)]
pub fn entry_of(rec: &[u64]) -> (u32, &[u64]) {
    (rec[0] as u32, &rec[1..1 + 2 * (rec[0] >> 32) as usize])
}

/// A table as the generated code reads it: the host's arrays by pointer,
/// `cap` control bytes, `cap * key_words` key words and `cap * stride`
/// record words. The host builds the views at every call into the
/// generated code, so no rehash between calls leaves a pointer stale.
#[repr(C)]
pub struct TableView {
    pub key_words: usize,
    pub cap: usize,
    pub stride: usize,
    pub ctrl: *const u8,
    pub keys: *const u64,
    pub vals: *const u64,
}

impl TableView {
    /// The action id and action data stored under `key`.
    ///
    /// # Safety
    /// The arrays the view points at are live and unchanged since the view
    /// was built.
    #[inline(always)]
    pub unsafe fn lookup(&self, key: &[u64]) -> Option<(u32, &[u64])> {
        let ctrl = core::slice::from_raw_parts(self.ctrl, self.cap);
        let keys = core::slice::from_raw_parts(self.keys, self.cap * self.key_words);
        let i = probe(ctrl, keys, self.key_words, key)?;
        Some(entry_of(core::slice::from_raw_parts(self.vals.add(i * self.stride), self.stride)))
    }
}
