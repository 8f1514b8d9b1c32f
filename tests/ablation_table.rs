//! The table-driven `apply_set` reproduces the hand-written sequence it
//! replaced.
//!
//! Until PR 13 `core::ablation::apply_set` spelled the pass order out by
//! hand, next to `core::level::PASSES`. It is now a loop over the rows of
//! that table whose `enabled` predicate accepts the set. The fingerprints
//! below were generated with the hand-written `apply_set` at the parent
//! commit: FNV-1a over `ilpc_ir::text::serialize` of the transformed module
//! followed by the `Debug` form of the returned `TransformReport`, for the
//! 15 sets the `ablation` binary uses × four workloads at scale 0.05.

use ilp_compiler::core_transforms::ablation::{apply_set, TransformSet};
use ilp_compiler::prelude::*;

const WORKLOADS: [&str; 4] = ["dotprod", "maxval", "add", "merge"];

/// Rows follow [`sets`]; columns follow [`WORKLOADS`].
const FINGERPRINTS: [[u64; 4]; 15] = [
    // none
    [0x66deae606aa46aaa, 0xce5b455e58210e4c, 0x03742aa6f10eaffe, 0x27611a63d558d75a],
    // all
    [0x486bfe80246c609d, 0xe10a1c9fc8d4eab8, 0xa51e23c59a91cd0a, 0x5c24d5ce830f1279],
    // of_level(Lev2)
    [0x77b4524eb26d752d, 0xe7e6bbf39ad760d3, 0x9ce85dcba53891d4, 0x6e6db4a445185125],
    // all_but: combine, strength, threduce, accum, induct, search
    [0x7f35bc222782507f, 0x98a5fe84fd4adbe8, 0xf4b1947c5564a998, 0x6e6db4a445185125],
    [0x486bfe80246c609d, 0xe10a1c9fc8d4eab8, 0xa51e23c59a91cd0a, 0x5c24d5ce830f1279],
    [0x486bfe80246c609d, 0xe10a1c9fc8d4eab8, 0xa51e23c59a91cd0a, 0x5c24d5ce830f1279],
    [0xf7563488fe3f0a8a, 0xe10a1c9fc8d4eab8, 0xa51e23c59a91cd0a, 0x5c24d5ce830f1279],
    [0xff26720482bf9fa6, 0xe10a1c9fc8d4eab8, 0x499b7d2fb9b87ceb, 0x5c24d5ce830f1279],
    [0x486bfe80246c609d, 0x9f3109ccc42cfdab, 0xa51e23c59a91cd0a, 0x5c24d5ce830f1279],
    // lev2_plus: combine, strength, threduce, accum, induct, search
    [0x612e21239cd4b7f1, 0x0dd74270141429cc, 0x1409abfe72196bbe, 0x1d56f1480ce1bcc2],
    [0x77b4524eb26d752d, 0xe7e6bbf39ad760d3, 0x9ce85dcba53891d4, 0x6e6db4a445185125],
    [0x77b4524eb26d752d, 0xe7e6bbf39ad760d3, 0x9ce85dcba53891d4, 0x6e6db4a445185125],
    [0x50c412441ee04dda, 0xe7e6bbf39ad760d3, 0x9ce85dcba53891d4, 0x6e6db4a445185125],
    [0x9d4aa2f5b75228e4, 0xe7e6bbf39ad760d3, 0xf4b1947c5564a998, 0x6e6db4a445185125],
    [0x77b4524eb26d752d, 0x98a5fe84fd4adbe8, 0x9ce85dcba53891d4, 0x6e6db4a445185125],
];

fn sets() -> Vec<(String, TransformSet)> {
    let mut sets = vec![
        ("none".to_string(), TransformSet::none()),
        ("all".to_string(), TransformSet::all()),
        ("of_level(Lev2)".to_string(), TransformSet::of_level(Level::Lev2)),
    ];
    for name in TransformSet::NAMES {
        sets.push((format!("all_but({name})"), TransformSet::all_but(name)));
    }
    for name in TransformSet::NAMES {
        sets.push((format!("lev2_plus({name})"), TransformSet::lev2_plus(name)));
    }
    sets
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn table_driven_apply_set_matches_parent_fingerprints() {
    let sets = sets();
    assert_eq!(sets.len(), FINGERPRINTS.len());
    let mut mismatches = Vec::new();
    for ((label, set), row) in sets.iter().zip(FINGERPRINTS) {
        for (name, want) in WORKLOADS.into_iter().zip(row) {
            let meta = table2().into_iter().find(|m| m.name == name).unwrap();
            let w = build(&meta, 0.05);
            let mut module = lower(&w.program).module;
            let report = apply_set(&mut module, set, &UnrollConfig::default());
            let text = format!("{}{report:?}", ilp_compiler::ir::text::serialize(&module));
            let got = fnv1a(text.as_bytes());
            if got != want {
                mismatches.push(format!("{label} on {name}: {got:#018x}, parent {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
