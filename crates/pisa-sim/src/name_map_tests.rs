//! Tests of [`super::NameHasher`]: the names the repository's programs
//! declare hash apart, and the cases a word-at-a-time reader could fold
//! together (lengths, tail bytes, word order) do not.

use std::collections::BTreeSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use p4all_elastic::apps::{conquest, lpm, netcache, precision, sketchlearn, vlan};
use p4all_lang::ast::Program;
use p4all_lang::tenant::merge_programs;
use p4all_lang::Tenant;

use super::*;

fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
    BuildHasherDefault::<NameHasher>::default().hash_one(value)
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = NameHasher::default();
    h.write(bytes);
    h.finish()
}

/// Every table, action, field and register name of `p`.
fn names(p: &Program, out: &mut BTreeSet<String>) {
    out.extend(p.tables.iter().map(|t| t.name.clone()));
    out.extend(p.actions.iter().map(|a| a.name.clone()));
    out.extend(p.registers.iter().map(|r| r.name.clone()));
    out.extend(p.metadata.iter().map(|m| m.name.clone()));
    out.extend(p.headers.iter().flat_map(|h| h.fields.iter().map(|(f, _)| f.clone())));
}

#[test]
fn every_name_of_the_paper_apps_and_the_joint_hashes_apart() {
    let parse = |src: String| p4all_lang::parse(&src).expect("app parses");
    let apps = [
        parse(netcache::source(&Default::default())),
        parse(sketchlearn::source(&Default::default())),
        parse(precision::source(&Default::default())),
        parse(conquest::source(&Default::default())),
    ];
    // The three tenants of the joint workloads; their sizes differ from
    // joint to joint, their names do not.
    let tenant = |name, weight| Tenant::new(name, weight).unwrap();
    let joint = merge_programs(&[
        (tenant("cache", 2.0), parse(netcache::source(&Default::default()))),
        (tenant("filter", 1.0), parse(vlan::source(&Default::default()))),
        (tenant("routes", 1.0), parse(lpm::source(&Default::default()))),
    ])
    .expect("tenants merge");
    let mut all = BTreeSet::new();
    for p in apps.iter().chain([&joint]) {
        names(p, &mut all);
    }
    assert!(all.len() > 60, "only {} names", all.len());
    assert!(all.contains("cache::kv_idx"), "the joint's names are namespaced");
    let hashes: BTreeSet<u64> = all.iter().map(|n| hash(n.as_str())).collect();
    assert_eq!(hashes.len(), all.len(), "{} names, {} hashes", all.len(), hashes.len());
}

#[test]
fn strings_that_differ_only_in_length_hash_apart() {
    for set in [&["a", "aa", "aaa"][..], &["abcd", "abcdabcd"], &["abc", "abcabc", "abcabcab"]] {
        let hashes: BTreeSet<u64> = set.iter().map(|s| hash(*s)).collect();
        assert_eq!(hashes.len(), set.len(), "{set:?}");
        let raw: BTreeSet<u64> = set.iter().map(|s| hash_bytes(s.as_bytes())).collect();
        assert_eq!(raw.len(), set.len(), "{set:?} as bytes");
    }
    // Repeats of one byte, 0 to 24 long: every tail length, before and
    // after whole words, read by overlapping loads that agree.
    let runs: Vec<String> = (0..=24).map(|n| "x".repeat(n)).collect();
    let hashes: BTreeSet<u64> = runs.iter().map(|s| hash_bytes(s.as_bytes())).collect();
    assert_eq!(hashes.len(), runs.len());
}

#[test]
fn one_byte_changed_in_a_tail_changes_the_hash() {
    for words in [0, 8, 16] {
        for tail in 1..=7 {
            let base: Vec<u8> = (0..words + tail).map(|i| b'a' + i as u8).collect();
            for at in words..words + tail {
                let mut other = base.clone();
                other[at] ^= 0x20;
                assert_ne!(
                    hash_bytes(&base),
                    hash_bytes(&other),
                    "{} vs {}",
                    String::from_utf8_lossy(&base),
                    String::from_utf8_lossy(&other)
                );
            }
        }
    }
}

#[test]
fn keys_hash_by_word_order() {
    assert_ne!(hash(&vec![1u64, 2]), hash(&vec![2u64, 1]));
    assert_ne!(hash(&[1u64, 2][..]), hash(&[2u64, 1][..]));
    assert_ne!(hash(&vec![0u64]), hash(&vec![0u64, 0]));
}
