//! Snapshot-format compatibility gate (run by `scripts/tier1.sh`).
//!
//! Builds a deterministic synthetic graph, freezes it in memory, streams
//! the same intern/edge sequence to a file through the spilling writer,
//! opens the file at full verification, and checks that both copies are
//! the same bytes and answer read queries identically to the builder
//! store. The header constants are asserted against hard-coded expected
//! bytes so that any accidental format change (magic, version, layout)
//! fails the gate instead of silently invalidating snapshots written by
//! earlier builds, and a corrupted file must be refused.
//!
//! ```text
//! cargo run --release --example snapshot_check
//! ```

use cosmo::kg::{
    BehaviorKind, Edge, GraphView, KgSnapshotView, KnowledgeGraph, NodeKind, Relation,
    SnapshotStreamWriter, StreamInterner, StreamOptions, Verify,
};

fn main() {
    // 1. A deterministic synthetic graph: 2000 query heads, 12 intent
    //    edges each, relations cycling through all 15 types.
    let n_heads = 2000usize;
    let deg = 12usize;
    //    The same sequence feeds the store and the streaming writer,
    //    whose small buffer forces spill runs and a k-way merge.
    let mut kg = KnowledgeGraph::new();
    let mut interner = StreamInterner::new();
    let mut writer = SnapshotStreamWriter::new(StreamOptions {
        buffer_edges: 4096,
        spill_dir: None,
    });
    for i in 0..n_heads {
        let text = format!("query {i}");
        let q = kg.intern_node(NodeKind::Query, &text);
        assert_eq!(interner.intern(NodeKind::Query, &text), q);
        for j in 0..deg {
            let text = format!("intent {}", (i * 17 + j * 29) % 800);
            let t = kg.intern_node(NodeKind::Intention, &text);
            assert_eq!(interner.intern(NodeKind::Intention, &text), t);
            let edge = Edge {
                head: q,
                relation: Relation::ALL[(i + j) % Relation::ALL.len()],
                tail: t,
                behavior: BehaviorKind::SearchBuy,
                category: (i % 18) as u8,
                plausibility: 0.5 + (j % 10) as f32 / 20.0,
                typicality: (i % 10) as f32 / 10.0,
                support: 1 + (j as u32 % 5),
            };
            kg.add_edge(edge.clone());
            writer.push(edge).expect("buffer edge");
        }
    }
    println!(
        "graph: {} nodes, {} edges, {} relations",
        kg.num_nodes(),
        kg.num_edges(),
        kg.num_relations()
    );

    // 2. Freeze in memory and check the header: magic + format version 2.
    let snap = kg.freeze();
    let bytes = snap.as_bytes();
    assert_eq!(&bytes[0..8], b"COSMOKG\0", "header magic changed");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        2,
        "format version changed — bump deliberately"
    );

    // 3. Stream to a file and open it at full verification rigor: the
    //    spilled, merged file must be the frozen bytes exactly.
    let path =
        std::env::temp_dir().join(format!("cosmo_snapshot_check_{}.kg2", std::process::id()));
    let stats = writer.finish(&interner, &path).expect("stream snapshot");
    assert!(stats.spill_runs > 0, "the writer was meant to spill");
    let opened = KgSnapshotView::open_verified(&path).expect("open snapshot");
    let on_disk = std::fs::metadata(&path).unwrap().len();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        opened.as_bytes(),
        bytes,
        "streamed file differs from freeze"
    );
    assert_eq!(opened.num_nodes(), kg.num_nodes());
    assert_eq!(opened.num_edges(), kg.num_edges());
    assert_eq!(opened.num_relations(), kg.num_relations());

    // 4. Spot-check read answers against the builder store: node lookup
    //    and per-relation adjacency on a spread of heads.
    for i in (0..n_heads).step_by(97) {
        let text = format!("query {i}");
        let id = kg.find_node(NodeKind::Query, &text).expect("store head");
        assert_eq!(opened.find_node(NodeKind::Query, &text), Some(id));
        assert_eq!(opened.node_text(id), text);
        for &rel in &Relation::ALL {
            let store: Vec<u32> = kg.tails_of_rel(id, rel).map(|e| e.tail.0).collect();
            let snap: Vec<u32> = opened
                .tails_of_rel_slice(id, rel)
                .iter()
                .map(|e| e.tail.0)
                .collect();
            assert_eq!(store, snap, "adjacency diverged at head {i} {rel:?}");
        }
        assert_eq!(
            kg.top_intents(id, 5)
                .iter()
                .map(|e| e.tail.0)
                .collect::<Vec<_>>(),
            GraphView::top_intents(&opened, id, 5)
                .iter()
                .map(|e| e.tail.0)
                .collect::<Vec<_>>(),
            "intent ranking diverged at head {i}"
        );
    }

    // 5. A corrupted file must be refused, not mis-served.
    let mut corrupt = bytes.to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    assert!(
        KgSnapshotView::from_bytes(corrupt, Verify::Full).is_err(),
        "corrupt snapshot was accepted"
    );
    println!(
        "snapshot check ok: {} bytes on disk, header v2, {} spill runs, \
         streamed file identical to freeze, corruption refused",
        on_disk, stats.spill_runs
    );
}
