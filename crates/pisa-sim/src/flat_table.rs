//! Open-addressed exact-match table over flat `u64` keys: the one table
//! store of both fast engines. The bytecode engine probes it in place; the
//! generated native code probes the same arrays through a [`TableView`].
//! The hash, the probe and the view are `table_probe.rs`, included here
//! and pasted into every generated crate. Each slot also carries a
//! host-only tag, which the view never sees: the control plane's index of
//! the interpreter's named entry for that key. Layout, hash and growth
//! rule: DESIGN.md, "Control plane".

// `TableView::lookup` runs in the generated code; the host only tests it.
#[allow(dead_code)]
mod probe {
    include!("table_probe.rs");
}
pub use probe::TableView;
use probe::{entry_of, home, probe, EMPTY, FULL, TOMB};

pub struct Table {
    /// Words per key; a key of any other length is never stored.
    key_words: usize,
    /// Words per slot in `vals`: the head word and the `(slot, value)`
    /// pairs of the widest entry installed so far.
    stride: usize,
    /// Power-of-two slot count (0 until the first insert).
    cap: usize,
    /// Full + tombstone slots: at most 7/8 of `cap`, so a probe always
    /// ends at an empty slot.
    used: usize,
    /// Full slots.
    live: usize,
    ctrl: Vec<u8>,
    keys: Vec<u64>,
    /// One entry record per slot ([`entry_of`]), `stride` words each.
    vals: Vec<u64>,
    /// One tag per slot, moved with its key.
    tags: Vec<u32>,
}

/// What [`Table::insert`] did with its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The key was present: its record is rewritten, its tag kept.
    Replaced(u32),
    /// The key was absent and is now stored with the given tag.
    Placed,
    /// Nothing stored: the key was absent and `limit` entries are live,
    /// or its arity is wrong.
    Refused,
}

impl Table {
    pub fn new(key_words: usize) -> Table {
        Table {
            key_words,
            stride: 1,
            cap: 0,
            used: 0,
            live: 0,
            ctrl: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
            tags: Vec::new(),
        }
    }

    pub fn key_words(&self) -> usize {
        self.key_words
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// The slot holding `key`.
    #[inline(always)]
    fn find(&self, key: &[u64]) -> Option<usize> {
        probe(&self.ctrl, &self.keys, self.key_words, key)
    }

    /// The action id and `(slot, value)` data words stored under `key`.
    #[inline(always)]
    pub fn lookup(&self, key: &[u64]) -> Option<(u32, &[u64])> {
        let i = self.find(key)?;
        Some(entry_of(&self.vals[i * self.stride..(i + 1) * self.stride]))
    }

    /// The tag stored with `key`.
    #[inline(always)]
    pub fn tag(&self, key: &[u64]) -> Option<u32> {
        self.find(key).map(|i| self.tags[i])
    }

    /// The table as the generated code reads it, valid until the next
    /// `&mut` call.
    pub fn view(&self) -> TableView {
        TableView {
            key_words: self.key_words,
            cap: self.cap,
            stride: self.stride,
            ctrl: self.ctrl.as_ptr(),
            keys: self.keys.as_ptr(),
            vals: self.vals.as_ptr(),
        }
    }

    /// Store `action` with `data` under `key` in one probe. A present key
    /// gets the new record and keeps its tag; an absent one is placed
    /// with `tag` unless `limit` entries are already live.
    pub fn insert(
        &mut self,
        key: &[u64],
        action: u32,
        data: &[(u32, u64)],
        tag: u32,
        limit: usize,
    ) -> Insert {
        if key.len() != self.key_words {
            return Insert::Refused;
        }
        let (i, done) = match self.find(key) {
            Some(i) => (i, Insert::Replaced(self.tags[i])),
            None if self.live >= limit => return Insert::Refused,
            None => {
                if (self.used + 1) * 8 > self.cap * 7 {
                    self.rehash();
                }
                self.live += 1;
                let i = self.place(key);
                self.tags[i] = tag;
                (i, Insert::Placed)
            }
        };
        if 1 + 2 * data.len() > self.stride {
            self.widen(1 + 2 * data.len());
        }
        let rec = &mut self.vals[i * self.stride..(i + 1) * self.stride];
        rec[0] = u64::from(action) | ((data.len() as u64) << 32);
        for (pair, &(slot, value)) in rec[1..].chunks_exact_mut(2).zip(data) {
            pair.copy_from_slice(&[u64::from(slot), value]);
        }
        done
    }

    /// Put a key known to be absent into the first free slot on its
    /// probe path (a tombstone is reused); returns the slot.
    fn place(&mut self, key: &[u64]) -> usize {
        let kw = self.key_words;
        let mut i = home(key, self.cap);
        while self.ctrl[i] == FULL {
            i = (i + 1) & (self.cap - 1);
        }
        if self.ctrl[i] == EMPTY {
            self.used += 1;
        }
        self.ctrl[i] = FULL;
        self.keys[i * kw..i * kw + kw].copy_from_slice(key);
        i
    }

    /// Remove `key`; returns its tag if it was present.
    pub fn remove(&mut self, key: &[u64]) -> Option<u32> {
        let i = self.find(key)?;
        self.ctrl[i] = TOMB;
        self.live -= 1;
        Some(self.tags[i])
    }

    /// Drop every entry; the capacity stays.
    pub fn clear(&mut self) {
        self.ctrl.fill(EMPTY);
        self.used = 0;
        self.live = 0;
    }

    /// Re-lay every record at a wider `stride`.
    fn widen(&mut self, stride: usize) {
        let mut vals = vec![0; self.cap * stride];
        for (new, old) in vals.chunks_exact_mut(stride).zip(self.vals.chunks_exact(self.stride)) {
            new[..self.stride].copy_from_slice(old);
        }
        self.vals = vals;
        self.stride = stride;
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
        let (kw, stride) = (self.key_words, self.stride);
        let ctrl = std::mem::replace(&mut self.ctrl, vec![EMPTY; cap]);
        let keys = std::mem::replace(&mut self.keys, vec![0; cap * kw]);
        let vals = std::mem::replace(&mut self.vals, vec![0; cap * stride]);
        let tags = std::mem::replace(&mut self.tags, vec![0; cap]);
        self.cap = cap;
        self.used = 0;
        for (i, _) in ctrl.iter().enumerate().filter(|&(_, &c)| c == FULL) {
            let j = self.place(&keys[i * kw..i * kw + kw]);
            self.vals[j * stride..(j + 1) * stride]
                .copy_from_slice(&vals[i * stride..(i + 1) * stride]);
            self.tags[j] = tags[i];
        }
    }
}

#[cfg(test)]
#[path = "flat_table_tests.rs"]
mod tests;
