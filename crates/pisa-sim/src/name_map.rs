//! The one hasher of every map in `p4all-sim`: names (tables, actions,
//! fields, registers, diagnostics) and the interpreter's table keys.
//!
//! Every key is switch-internal — a name the program declared or a key
//! word the control plane installed — never an attacker-chosen map key,
//! so nothing DoS-resistant (std's SipHash-1-3) is paid for. What is paid
//! for instead is the shape of the keys: names are short, so bytes are
//! read a word at a time straight from the slice, never copied into a
//! zero-padded buffer. DESIGN.md, "Control plane: what is resolved when".

use std::hash::{BuildHasherDefault, Hasher};

/// rustc-hash 2.x's multiplier.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-add hasher for short strings and `u64` words.
///
/// `write` takes 8-byte little-endian words, then a 4–7-byte tail as two
/// overlapping `u32` reads and a 1–3-byte tail as its first, middle and
/// last byte; either tail has its length folded in, so strings that differ
/// only in length (`aaaa` … `aaaaaaa`, whose overlapping reads agree) do
/// not collide. Each word costs one multiply-add.
#[derive(Default)]
pub struct NameHasher {
    hash: u64,
}

impl NameHasher {
    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

#[inline(always)]
fn u32_at(bytes: &[u8], at: usize) -> u64 {
    u64::from(u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]))
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
        }
        let tail = words.remainder();
        let n = tail.len();
        match n {
            0 => {}
            1..=3 => {
                let (first, mid, last) = (tail[0], tail[n / 2], tail[n - 1]);
                let folded = u64::from(first) | u64::from(mid) << 8 | u64::from(last) << 16;
                self.add(folded | (n as u64) << 24);
            }
            _ => self.add((u32_at(tail, 0) | u32_at(tail, n - 4) << 32).wrapping_add(n as u64)),
        }
    }

    // One word each: the `0xff` that ends a `str` key, the length that
    // starts a slice key, a `u64` key.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply carries entropy upward only, and std's map picks a
    /// bucket from the low bits: rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A std `HashMap` on [`NameHasher`]: the crate's only map type.
#[allow(clippy::disallowed_types)]
pub type NameMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<NameHasher>>;

#[cfg(test)]
#[path = "name_map_tests.rs"]
mod tests;
