//! Adversarial decode tests: a snapshot blob with any single byte
//! flipped, or truncated anywhere, must come back as a clean
//! [`SnapshotError`] — never a panic, never a silently-wrong graph.
//!
//! The zero-copy validator behind [`KgSnapshotView`] is covered at both
//! verification levels. The `Structural` level is the production `open`
//! path, so it gets the same treatment as `Full`.
//!
//! Skipped under Miri: proptest's case generation is far too slow in the
//! interpreter; the decoder's unit tests in `src/snapshot.rs` cover the
//! same code paths there.
#![cfg(not(miri))]

use cosmo_kg::{
    BehaviorKind, Edge, KgSnapshotView, KnowledgeGraph, NodeId, NodeKind, Relation, Verify,
};
use proptest::prelude::*;

/// A small but fully featured graph: several node kinds, every relation,
/// both behaviors, shared tails (in-edges with fan-in), non-trivial text.
fn fixture() -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    for h in 0..12 {
        let kind = if h % 2 == 0 {
            NodeKind::Query
        } else {
            NodeKind::Product
        };
        let head = kg.intern_node(kind, &format!("query head №{h}"));
        for t in 0..4 {
            let tail = kg.intern_node(NodeKind::Intention, &format!("intent {}", (h + t) % 5));
            kg.add_edge(Edge {
                head,
                relation: Relation::ALL[(h * 7 + t * 3) % Relation::ALL.len()],
                tail,
                behavior: if t % 2 == 0 {
                    BehaviorKind::SearchBuy
                } else {
                    BehaviorKind::CoBuy
                },
                category: (t % 18) as u8,
                plausibility: 0.5,
                typicality: 0.25,
                support: 1 + (h % 3) as u32,
            });
        }
    }
    kg
}

fn v2_bytes() -> Vec<u8> {
    fixture().freeze().as_bytes().to_vec()
}

/// The decoder at every verification level, over one byte buffer. Each
/// call either succeeds or returns `Err` — reaching the end of this
/// function without unwinding is the property under test.
fn decode_all(bytes: &[u8]) {
    let _ = KgSnapshotView::from_bytes(bytes.to_vec(), Verify::Structural);
    let _ = KgSnapshotView::from_bytes(bytes.to_vec(), Verify::Full);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn v2_single_byte_corruption_never_panics(pos in 0usize..16384, xor in 1u8..=255) {
        let mut bytes = v2_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        // Full verification recomputes the checksum → always an error.
        prop_assert!(KgSnapshotView::from_bytes(bytes.clone(), Verify::Full).is_err());
        // Structural skips the checksum for O(1)-ish opens; a flipped
        // float payload byte can legitimately pass, but it must never
        // panic and never produce an out-of-bounds graph.
        if let Ok(snap) = KgSnapshotView::from_bytes(bytes.clone(), Verify::Structural) {
            let n = snap.num_nodes();
            for e in snap.edges() {
                prop_assert!((e.head.0 as usize) < n && (e.tail.0 as usize) < n);
            }
            for id in 0..n {
                let _ = snap.node_text(NodeId(id as u32));
            }
        }
        decode_all(&bytes);
    }

    #[test]
    fn truncation_is_a_clean_error(keep_frac in 0.0f64..1.0) {
        let bytes = v2_bytes();
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        let truncated = &bytes[..keep.min(bytes.len().saturating_sub(1))];
        for verify in [Verify::Structural, Verify::Full] {
            prop_assert!(KgSnapshotView::from_bytes(truncated.to_vec(), verify).is_err());
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        decode_all(&bytes);
    }
}

#[test]
fn uncorrupted_blobs_still_round_trip() {
    // guards the fixtures above: if encoding broke, every corruption
    // "rejection" would be vacuous
    let kg = fixture();
    let bytes = v2_bytes();
    let v2 = KgSnapshotView::from_bytes(bytes.clone(), Verify::Full).expect("v2 round trip");
    assert_eq!(v2.num_edges(), kg.num_edges());
    // length and digest of the bytes the earlier owned-CSR encoder wrote
    // for this fixture
    assert_eq!(bytes.len(), 2704);
    assert_eq!(cosmo_text::hash::hash_bytes(&bytes), 0x8662_8649_0f5c_2889);
}
