//! Paper-scale graph production: wave-parallel shard generation merged
//! through the streaming snapshot writer.
//!
//! [`cosmo_synth::scale`] cuts the head space into a fixed shard grid and
//! makes each shard a pure function of `(config, shard index)`; this module
//! fans shard generation out over the [`cosmo_exec::WorkerPool`] in waves
//! and merges the outputs **in shard order** through a global
//! [`StreamInterner`] + [`SnapshotStreamWriter`] — the same sequential-
//! intern pattern the Figure-2 pipeline uses, so the bytes on disk are
//! identical for any `threads` value (locked by a test below). The writer
//! spills sorted edge runs as it goes, which is what keeps a 29M-edge
//! freeze inside a laptop memory budget; see
//! [`cosmo_kg::stream_writer`] for the layout and the RSS argument.

use cosmo_exec::WorkerPool;
use cosmo_kg::stream_writer::{SnapshotStreamWriter, StreamInterner, StreamOptions, StreamStats};
use cosmo_kg::{Edge, NodeId, SnapshotError};
use cosmo_synth::scale::{generate_shard, ScaleConfig};
use std::path::Path;

/// Outcome of a streaming freeze, for bench reporting.
#[derive(Debug, Clone)]
pub struct ScaleFreezeReport {
    /// Writer-side stats (nodes, merged edges, spill volume, file size).
    pub stats: StreamStats,
    /// Shards generated.
    pub shards: usize,
    /// Worker threads the pool actually ran.
    pub threads: usize,
}

/// Generate the configured world shard-by-shard on `threads` workers and
/// stream-freeze it to a v2 snapshot at `path`.
///
/// Output bytes depend only on `(cfg, opts.buffer_edges)` — never on
/// `threads` (scheduling) or on how shards interleave in time: waves are
/// merged in shard order, and within a shard the local intern table fixes
/// the id assignment.
pub fn generate_and_freeze(
    cfg: &ScaleConfig,
    threads: usize,
    path: &Path,
    opts: StreamOptions,
) -> Result<ScaleFreezeReport, SnapshotError> {
    let pool = WorkerPool::new(threads);
    let shards = cfg.num_shards();
    let mut interner = StreamInterner::new();
    let mut writer = SnapshotStreamWriter::new(opts);
    // Wave size bounds how many shard outputs are resident at once. It
    // scales with the pool (keeping workers busy) but only affects
    // scheduling: the merge below always walks shards in index order.
    let wave = pool.threads().saturating_mul(2).max(1);
    let mut scratch: Vec<NodeId> = Vec::new();

    let mut next = 0usize;
    while next < shards {
        let batch: Vec<usize> = (next..shards.min(next + wave)).collect();
        next += batch.len();
        let outputs = pool.map(&batch, 1, |_, &shard| generate_shard(cfg, shard));
        for out in outputs {
            scratch.clear();
            scratch.extend(
                out.nodes
                    .iter()
                    .map(|(kind, text)| interner.intern(*kind, text)),
            );
            for e in &out.edges {
                writer.push(Edge {
                    head: scratch[e.head as usize],
                    relation: e.relation,
                    tail: scratch[e.tail as usize],
                    behavior: e.behavior,
                    category: e.category,
                    plausibility: e.plausibility,
                    typicality: e.typicality,
                    support: e.support,
                })?;
            }
        }
    }

    let stats = writer.finish(&interner, path)?;
    Ok(ScaleFreezeReport {
        stats,
        shards,
        threads: pool.threads(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_kg::{KgSnapshotView, KnowledgeGraph, Verify};

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cosmo-scale-{tag}-{}.kg2", std::process::id()))
    }

    #[test]
    fn thread_count_does_not_change_snapshot_bytes() {
        let cfg = ScaleConfig::tiny(42);
        let mut baseline: Option<Vec<u8>> = None;
        for threads in [1usize, 2, 4] {
            let path = tmp(&format!("threads-{threads}"));
            let report = generate_and_freeze(
                &cfg,
                threads,
                &path,
                StreamOptions {
                    buffer_edges: 1_000, // force spills even at tiny scale
                    spill_dir: None,
                },
            )
            .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(report.stats.file_bytes as usize, bytes.len());
            assert!(report.stats.spill_runs > 0, "tiny config must spill");
            match &baseline {
                None => baseline = Some(bytes),
                Some(b) => assert_eq!(b, &bytes, "threads={threads} changed the snapshot bytes"),
            }
        }
    }

    #[test]
    fn streamed_freeze_matches_store_freeze() {
        // Replaying the same shard sequence through the mutable store must
        // produce the identical file — the store is the semantics oracle.
        let cfg = ScaleConfig::tiny(9);
        let path = tmp("vs-store");
        generate_and_freeze(
            &cfg,
            2,
            &path,
            StreamOptions {
                buffer_edges: 777,
                spill_dir: None,
            },
        )
        .unwrap();
        let streamed = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let mut kg = KnowledgeGraph::new();
        for shard in 0..cfg.num_shards() {
            let out = generate_shard(&cfg, shard);
            let ids: Vec<_> = out
                .nodes
                .iter()
                .map(|(kind, text)| kg.intern_node(*kind, text))
                .collect();
            for e in &out.edges {
                kg.add_edge(Edge {
                    head: ids[e.head as usize],
                    relation: e.relation,
                    tail: ids[e.tail as usize],
                    behavior: e.behavior,
                    category: e.category,
                    plausibility: e.plausibility,
                    typicality: e.typicality,
                    support: e.support,
                });
            }
        }
        assert_eq!(streamed, kg.freeze().as_bytes());
        // length and digest of the bytes the earlier owned-CSR encoder
        // wrote for this replay
        assert_eq!(streamed.len(), 1_298_480);
        assert_eq!(
            cosmo_text::hash::hash_bytes(&streamed),
            0x1400_830b_0545_e131
        );
        KgSnapshotView::from_bytes(streamed, Verify::Full).unwrap();
    }
}
