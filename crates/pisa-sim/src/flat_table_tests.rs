//! Tests of [`super::Table`]: a model-based property test against
//! `std::collections::HashMap`, and the growth rule under churn.

use proptest::prelude::*;

use super::*;

/// An entry in the model's terms: `(action, data)`.
type Stored = (u32, Vec<(u32, u64)>);

/// What the table holds for `key`, read by the host's probe and by the
/// view the generated code probes through, which must agree.
fn seen(t: &Table, key: &[u64]) -> Option<Stored> {
    let stored = |(action, data): (u32, &[u64])| {
        (action, data.chunks_exact(2).map(|p| (p[0] as u32, p[1])).collect())
    };
    let host = t.lookup(key).map(stored);
    // SAFETY: `t` is borrowed, unchanged, for the view's whole life.
    let native = unsafe { t.view().lookup(key) }.map(stored);
    assert_eq!(host, native, "the host and the view disagree on {key:?}");
    host
}

/// The structural invariants every public call must leave behind.
fn check_shape(t: &Table) -> Result<(), String> {
    prop_assert!(t.cap == 0 || t.cap.is_power_of_two());
    prop_assert!(t.used * 8 <= t.cap * 7, "used {} of {}", t.used, t.cap);
    prop_assert!(t.live <= t.used);
    prop_assert_eq!(t.ctrl.iter().filter(|&&c| c == FULL).count(), t.live);
    prop_assert_eq!(t.ctrl.iter().filter(|&&c| c != EMPTY).count(), t.used);
    prop_assert_eq!(t.ctrl.len(), t.cap);
    prop_assert_eq!(t.keys.len(), t.cap * t.key_words);
    prop_assert_eq!(t.vals.len(), t.cap * t.stride);
    prop_assert_eq!(t.tags.len(), t.cap);
    Ok(())
}

/// Spread `n` over `kw` words, so that a small range of `n` revisits the
/// same keys at every arity.
fn key_of(n: u64, kw: usize) -> Vec<u64> {
    let base = [1u64, 240, 16, 7, 4][kw];
    (0..kw as u32).map(|j| (n / base.pow(j)) % base).collect()
}

/// No live-entry limit.
const ANY: usize = usize::MAX;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random insert / overwrite / remove / clear / lookup sequences agree
    /// with a `HashMap` after every step, tags included: an insert
    /// reports the tag it replaced, and `tag` and `remove` return the one
    /// the key was placed with, whatever rehashes moved it. 240 distinct
    /// keys take the table through five doublings; one op in sixteen
    /// carries a key of the wrong arity, which the table must neither
    /// store nor match; one case in four caps the live count at 100.
    #[test]
    fn agrees_with_hashmap(
        kw in 1usize..=3,
        capped in 0u8..4,
        ops in proptest::collection::vec((0u8..20, 0u64..240, 0u8..16), 1..900),
    ) {
        let limit = if capped == 0 { 100 } else { ANY };
        let mut t = Table::new(kw);
        // The model is std's map: independent of the crate's hasher.
        #[allow(clippy::disallowed_types)]
        let mut model: std::collections::HashMap<Vec<u64>, (Stored, u32)> = Default::default();
        for (step, &(kind, n, quirk)) in ops.iter().enumerate() {
            let arity = match quirk {
                15 if n % 2 == 0 => kw + 1,
                15 => kw - 1,
                _ => kw,
            };
            let key = key_of(n, arity);
            let fits = arity == kw;
            match kind {
                0..=9 => {
                    let action = step as u32;
                    let data: Vec<(u32, u64)> =
                        (0..quirk as u32 % 3).map(|s| (s, n + s as u64)).collect();
                    let tag = 1000 + step as u32;
                    let room = model.len() < limit;
                    let want = match model.get_mut(&key) {
                        Some(stored) => {
                            stored.0 = (action, data.clone());
                            Insert::Replaced(stored.1)
                        }
                        None if fits && room => {
                            model.insert(key.clone(), ((action, data.clone()), tag));
                            Insert::Placed
                        }
                        None => Insert::Refused,
                    };
                    let got = t.insert(&key, action, &data, tag, limit);
                    prop_assert_eq!(got, want, "insert {:?} at step {}", key, step);
                }
                10..=15 => {
                    let was = model.remove(&key).map(|(_, tag)| tag);
                    prop_assert_eq!(t.remove(&key), was, "remove {:?} at step {}", key, step);
                }
                16..=18 => {}
                _ => {
                    // A clear on one step in 320: long runs must survive.
                    if quirk == 0 {
                        t.clear();
                        model.clear();
                    }
                }
            }
            let want = model.get(&key);
            prop_assert_eq!(seen(&t, &key), want.map(|w| w.0.clone()), "{:?} at step {}", key, step);
            prop_assert_eq!(t.tag(&key), want.map(|w| w.1), "tag of {:?} at step {}", key, step);
            prop_assert_eq!(t.len(), model.len());
            check_shape(&t)?;
        }
        for (key, (want, tag)) in &model {
            prop_assert_eq!(seen(&t, key), Some(want.clone()));
            prop_assert_eq!(t.tag(key), Some(*tag));
        }
        let kw = t.key_words;
        let full = (0..t.cap).filter(|&i| t.ctrl[i] == FULL);
        let mut stored: Vec<Vec<u64>> = full.map(|i| t.keys[i * kw..][..kw].to_vec()).collect();
        let mut expected: Vec<Vec<u64>> = model.keys().cloned().collect();
        stored.sort();
        expected.sort();
        prop_assert_eq!(stored, expected);
    }
}

#[test]
fn tombstone_is_reused() {
    let mut t = Table::new(1);
    for k in 0..5 {
        t.insert(&[k], k as u32, &[], k as u32, ANY);
    }
    let used = t.used;
    assert_eq!(t.remove(&[3]), Some(3));
    assert_eq!(t.remove(&[3]), None);
    assert_eq!((t.used, t.live), (used, 4));
    t.insert(&[3], 9, &[], 7, ANY);
    assert_eq!((t.used, t.live), (used, 5), "the tombstone's slot is taken again");
    assert_eq!((t.lookup(&[3]).map(|e| e.0), t.tag(&[3])), (Some(9), Some(7)));
}

#[test]
fn overwrite_never_rehashes() {
    let mut t = Table::new(2);
    for k in 0..7 {
        t.insert(&[k, k], 0, &[], k as u32, 7);
    }
    assert_eq!((t.cap, t.used), (8, 7), "at the load limit");
    assert_eq!(t.insert(&[7, 7], 1, &[], 7, 7), Insert::Refused, "and at the live limit");
    assert_eq!(t.insert(&[6, 6], 1, &[(4, 2)], 9, 7), Insert::Replaced(6));
    assert_eq!((t.cap, t.live, t.stride), (8, 7, 3));
    assert_eq!(seen(&t, &[6, 6]), Some((1, vec![(4, 2)])));
}

/// Keys with trailing zero bits — IPv4 /24 prefixes, shifted ids — spread
/// over the whole table: at half load a full slot sits on average at most
/// two slots past its home. Homes taken from the hash's low bits put
/// `i << 8` on 32 of 8192 slots.
#[test]
fn aligned_keys_spread_over_the_table() {
    for shift in [8u32, 16, 32] {
        let mut t = Table::new(1);
        for i in 1..=4096u64 {
            t.insert(&[i << shift], 0, &[], 0, ANY);
        }
        assert_eq!((t.cap, t.live), (8192, 4096));
        let mask = t.cap - 1;
        let distance: usize = (0..t.cap)
            .filter(|&i| t.ctrl[i] == FULL)
            .map(|i| i.wrapping_sub(home(&t.keys[i..i + 1], t.cap)) & mask)
            .sum();
        let mean = distance as f64 / t.live as f64;
        assert!(mean <= 2.0, "keys i << {shift}: mean distance from home {mean:.2}");
    }
}

/// The FIFO controller's pattern: evict the oldest key, install a new
/// one, a million times over a thousand live keys. Tombstones must be
/// reclaimed at the same capacity, not by doubling.
#[test]
fn churn_at_constant_size_keeps_capacity() {
    const LIVE: u64 = 1000;
    let mut t = Table::new(1);
    for k in 0..LIVE {
        t.insert(&[k], k as u32, &[], k as u32, ANY);
    }
    for i in 0..1_000_000u64 {
        let tag = t.remove(&[i]).expect("the oldest key is present");
        assert_eq!(t.insert(&[i + LIVE], (i + LIVE) as u32, &[], tag, ANY), Insert::Placed);
    }
    assert!(t.cap <= 4096, "capacity {} after churn", t.cap);
    assert_eq!(t.live, LIVE as usize);
    for k in 1_000_000..1_000_000 + LIVE {
        assert_eq!(t.lookup(&[k]).map(|e| e.0), Some(k as u32), "key {k}");
        assert_eq!(t.tag(&[k]), Some((k % LIVE) as u32), "key {k}");
    }
    assert!(t.lookup(&[999_999]).is_none());
}

/// An install wider than every earlier one re-lays all records at the new
/// stride; a narrower overwrite keeps the stride and drops the old pairs.
#[test]
fn a_wider_entry_widens_every_record() {
    let mut t = Table::new(1);
    for k in 0..20 {
        t.insert(&[k], k as u32, &[(1, k)], 0, ANY);
    }
    t.insert(&[20], 20, &[(1, 5), (2, 6), (3, 7)], 0, ANY);
    assert_eq!(t.stride, 7);
    for k in 0..20 {
        assert_eq!(seen(&t, &[k]), Some((k as u32, vec![(1, k)])), "key {k}");
    }
    assert_eq!(seen(&t, &[20]), Some((20, vec![(1, 5), (2, 6), (3, 7)])));
    t.insert(&[20], 4, &[], 0, ANY);
    assert_eq!((t.stride, seen(&t, &[20])), (7, Some((4, vec![]))));
}
