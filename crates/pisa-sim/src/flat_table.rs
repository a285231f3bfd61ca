//! Open-addressed exact-match table over flat `u64` keys: the one table
//! store of both fast engines. `p4all-sim` compiles this file for the
//! bytecode engine and pastes it verbatim into the generated native
//! source, so it uses `std` only and names nothing outside itself.
//! Layout, hash and growth rule: DESIGN.md, "Control plane".

/// An installed entry, pre-resolved: dense action id and `(PHV slot,
/// value)` action-data writes.
#[derive(Default)]
pub struct Entry {
    pub action: u32,
    pub data: Vec<(u32, u64)>,
}

const EMPTY: u8 = 0;
const FULL: u8 = 1;
const TOMB: u8 = 2;

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

pub struct Table {
    /// Words per key; a key of any other length is never stored.
    key_words: usize,
    /// Power-of-two slot count (0 until the first insert).
    cap: usize,
    /// Full + tombstone slots: at most 7/8 of `cap`, so a probe always
    /// ends at an empty slot.
    used: usize,
    /// Full slots.
    live: usize,
    ctrl: Vec<u8>,
    keys: Vec<u64>,
    entries: Vec<Entry>,
}

impl Table {
    pub fn new(key_words: usize) -> Table {
        Table {
            key_words,
            cap: 0,
            used: 0,
            live: 0,
            ctrl: Vec::new(),
            keys: Vec::new(),
            entries: Vec::new(),
        }
    }

    pub fn key_words(&self) -> usize {
        self.key_words
    }

    /// The top bits of the hash (Fibonacci hashing): its low bits see only
    /// a key's low bits, so aligned keys would share few home slots.
    #[inline(always)]
    fn home(&self, key: &[u64]) -> usize {
        (table_hash(key) >> (64 - self.cap.trailing_zeros())) as usize
    }

    /// The slot holding `key`: a hash and a linear probe.
    #[inline(always)]
    fn find(&self, key: &[u64]) -> Option<usize> {
        if self.cap == 0 {
            return None;
        }
        let (mask, kw) = (self.cap - 1, self.key_words);
        let mut i = self.home(key);
        loop {
            match self.ctrl[i] {
                EMPTY => return None,
                FULL if self.keys[i * kw..i * kw + kw] == *key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    #[inline(always)]
    pub fn lookup(&self, key: &[u64]) -> Option<&Entry> {
        self.find(key).map(|i| &self.entries[i])
    }

    /// Store `entry` under `key`, replacing any entry already there.
    pub fn insert(&mut self, key: &[u64], entry: Entry) {
        if key.len() != self.key_words {
            return;
        }
        if let Some(i) = self.find(key) {
            self.entries[i] = entry;
            return;
        }
        if (self.used + 1) * 8 > self.cap * 7 {
            self.rehash();
        }
        self.place(key, entry);
        self.live += 1;
    }

    /// Put a key known to be absent into the first free slot on its
    /// probe path (a tombstone is reused).
    fn place(&mut self, key: &[u64], entry: Entry) {
        let (mask, kw) = (self.cap - 1, self.key_words);
        let mut i = self.home(key);
        while self.ctrl[i] == FULL {
            i = (i + 1) & mask;
        }
        if self.ctrl[i] == EMPTY {
            self.used += 1;
        }
        self.ctrl[i] = FULL;
        self.keys[i * kw..i * kw + kw].copy_from_slice(key);
        self.entries[i] = entry;
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&mut self, key: &[u64]) -> bool {
        let Some(i) = self.find(key) else { return false };
        self.ctrl[i] = TOMB;
        self.entries[i] = Entry::default();
        self.live -= 1;
        true
    }

    /// Drop every entry; the capacity stays.
    pub fn clear(&mut self) {
        self.ctrl.fill(EMPTY);
        self.entries.iter_mut().for_each(|e| *e = Entry::default());
        self.used = 0;
        self.live = 0;
    }

    /// Every stored `(key, entry)`, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], &Entry)> {
        let kw = self.key_words;
        (0..self.cap)
            .filter(move |&i| self.ctrl[i] == FULL)
            .map(move |i| (&self.keys[i * kw..i * kw + kw], &self.entries[i]))
    }

    /// Rebuild without tombstones. The capacity doubles only when the
    /// live entries alone fill half of it: remove/insert churn at a
    /// constant live size rehashes in place instead of growing forever.
    fn rehash(&mut self) {
        let cap = match self.cap {
            0 => 8,
            c if self.live * 2 > c => c * 2,
            c => c,
        };
        let kw = self.key_words;
        let ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; cap]);
        let keys = std::mem::replace(&mut self.keys, vec![0; cap * kw]);
        let entries = std::mem::take(&mut self.entries);
        self.entries.resize_with(cap, Entry::default);
        self.cap = cap;
        self.used = 0;
        for (i, entry) in entries.into_iter().enumerate() {
            if ctrl[i] == FULL {
                self.place(&keys[i * kw..i * kw + kw], entry);
            }
        }
    }
}

#[cfg(test)]
#[path = "flat_table_tests.rs"]
mod tests;
