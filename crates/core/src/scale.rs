//! Paper-scale graph production: shard generation on the worker pool,
//! pipelined with the merge through the streaming snapshot writer.
//!
//! [`cosmo_synth::scale`] cuts the head space into a fixed shard grid and
//! makes each shard a pure function of `(config, shard index)`. This module
//! generates shards on the [`cosmo_exec::WorkerPool`] a bounded number
//! ahead of the calling thread, which meanwhile merges them **in shard
//! order** through a global [`StreamInterner`] + [`SnapshotStreamWriter`]
//! — the same sequential-intern pattern the Figure-2 pipeline uses, so the
//! bytes on disk are identical for any `threads` value (locked by a test
//! below). The writer spills sorted edge runs as it goes, which is what
//! keeps a 29M-edge freeze inside a laptop memory budget; see
//! [`cosmo_kg::stream_writer`] for the layout and the RSS argument.

use cosmo_exec::WorkerPool;
use cosmo_kg::stream_writer::{SnapshotStreamWriter, StreamInterner, StreamOptions, StreamStats};
use cosmo_kg::{Edge, NodeId, SnapshotError};
use cosmo_synth::scale::{generate_shard, ScaleConfig, ShardOutput};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Condvar, Mutex, PoisonError};

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
/// `threads` (scheduling) or on how shards interleave in time: the calling
/// thread merges shards in index order while the workers generate the next
/// ones, and within a shard the local intern table fixes the id
/// assignment. At most `2 × threads` shard outputs are resident at once.
pub fn generate_and_freeze(
    cfg: &ScaleConfig,
    threads: usize,
    path: &Path,
    opts: StreamOptions,
) -> Result<ScaleFreezeReport, SnapshotError> {
    let pool = WorkerPool::new(threads);
    let shards = cfg.num_shards();
    let mut merge = ShardMerge::new(cfg, opts);
    // The lookahead bounds how many shard outputs are resident at once. It
    // scales with the pool (keeping workers busy) but only affects
    // scheduling: the merge always walks shards in index order.
    let ahead = pool.threads().saturating_mul(2).max(1);
    ordered_lookahead(
        &pool,
        shards,
        ahead,
        |shard| generate_shard(cfg, shard),
        |out| merge.push_shard(&out),
    )?;
    let stats = merge.writer.finish(&merge.interner, path)?;
    Ok(ScaleFreezeReport {
        stats,
        shards,
        threads: pool.threads(),
    })
}

/// The calling thread's half of a freeze: global interning and edge push.
struct ShardMerge {
    interner: StreamInterner,
    writer: SnapshotStreamWriter,
    /// Global id of each intention index already interned, `UNSEEN` before
    /// its first use. `intent_text` is injective in the index, so an index
    /// resolves to the id its text would intern to without hashing it.
    intent_ids: Vec<u32>,
    /// Shard-local id → global id, reused across shards.
    ids: Vec<NodeId>,
    /// The current shard's edges over global ids; empty between shards.
    edges: Vec<Edge>,
}

const UNSEEN: u32 = u32::MAX;

impl ShardMerge {
    fn new(cfg: &ScaleConfig, opts: StreamOptions) -> ShardMerge {
        ShardMerge {
            interner: StreamInterner::new(),
            writer: SnapshotStreamWriter::new(opts),
            // PANIC: the index space must fit in memory as one table; a
            // config past usize is not a graph this process could freeze.
            // (`max(1)`: an empty space still draws index 0.)
            intent_ids: vec![
                UNSEEN;
                usize::try_from(cfg.intentions.max(1))
                    .expect("intention space fits usize")
            ],
            ids: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Intern shard `out`'s nodes and push its edges, presorted per head.
    fn push_shard(&mut self, out: &ShardOutput) -> Result<(), SnapshotError> {
        self.ids.clear();
        for node in out.nodes() {
            let id = match node.intention {
                Some(t) => {
                    let slot = &mut self.intent_ids[t as usize];
                    if *slot == UNSEEN {
                        *slot = self.interner.intern(node.kind, node.text).0;
                    }
                    NodeId(*slot)
                }
                // Head texts are unique across the world (locked by
                // `head_and_intent_texts_are_unique_and_deterministic`)
                // and nothing looks a head up, so it skips the index.
                None => self.interner.append_unique(node.kind, node.text),
            };
            self.ids.push(id);
        }
        self.edges.extend(out.edges.iter().map(|e| Edge {
            head: self.ids[e.head as usize],
            relation: e.relation,
            tail: self.ids[e.tail as usize],
            behavior: e.behavior,
            category: e.category,
            plausibility: e.plausibility,
            typicality: e.typicality,
            support: e.support,
        }));
        // A head's edges arrive together and head ids ascend, so sorting
        // each head's group by (relation, tail) hands the writer runs that
        // are already in CSR order. The sort is stable: equal keys keep
        // their arrival order, which is all duplicate folding observes, so
        // the file bytes are unchanged.
        for group in self.edges.chunk_by_mut(|a, b| a.head == b.head) {
            group.sort_by_key(|e| (e.relation.index(), e.tail.0));
        }
        for e in self.edges.drain(..) {
            self.writer.push(e)?;
        }
        Ok(())
    }
}

/// Run `produce(0..n)` on `pool` at most `ahead` items ahead of the calling
/// thread, which hands each result to `consume` in index order.
///
/// At most `ahead` results are resident at once, counting the one being
/// consumed. A panic in `produce(i)` is caught into item `i`'s slot and
/// re-raised on the calling thread when `consume` reaches `i`, after the
/// items still in flight have settled, so a panicking item never leaves
/// the caller waiting on its slot. An error from `consume` stops the run
/// the same way. On an inline pool every `produce` runs on the calling
/// thread, in the same index order.
fn ordered_lookahead<R, E>(
    pool: &WorkerPool,
    n: usize,
    ahead: usize,
    produce: impl Fn(usize) -> R + Sync,
    mut consume: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E>
where
    R: Send,
{
    let ahead = ahead.max(1);
    let slots: Mutex<Vec<Option<std::thread::Result<R>>>> =
        Mutex::new((0..ahead).map(|_| None).collect());
    let filled = Condvar::new();
    pool.scope(|s| {
        let spawn = |i: usize| {
            let (produce, slots, filled) = (&produce, &slots, &filled);
            s.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| produce(i)));
                slots.lock().unwrap_or_else(PoisonError::into_inner)[i % ahead] = Some(result);
                filled.notify_all();
            });
        };
        for i in 0..n.min(ahead) {
            spawn(i);
        }
        for i in 0..n {
            let result = {
                let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(result) = guard[i % ahead].take() {
                        break result;
                    }
                    guard = filled.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
            };
            match result {
                Ok(item) => consume(item)?,
                Err(payload) => resume_unwind(payload),
            }
            if i + ahead < n {
                spawn(i + ahead);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_kg::{KgSnapshotView, KnowledgeGraph, Verify};

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cosmo-scale-{tag}-{}.kg2", std::process::id()))
    }

    /// Drive [`ordered_lookahead`] over `n` items on `threads` workers on a
    /// helper thread, so that a hang fails the test instead of stalling
    /// it. Item 0 finishes only after item 1 has, when a second worker can
    /// run item 1 meanwhile. Returns the consumed sequence and the message
    /// of a re-raised panic.
    fn drive_lookahead(threads: usize, n: usize, panic_at: usize) -> (Vec<usize>, Option<String>) {
        use std::sync::mpsc;
        use std::time::Duration;
        let (done_tx, done_rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let pool = WorkerPool::new(threads);
            let (one_tx, one_rx) = mpsc::channel::<()>();
            let (one_tx, one_rx) = (Mutex::new(one_tx), Mutex::new(one_rx));
            let mut seen = Vec::new();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered_lookahead(
                    &pool,
                    n,
                    3,
                    |i| {
                        if i == panic_at {
                            panic!("item {i} panicked");
                        }
                        match i {
                            0 if threads > 1 => one_rx.lock().unwrap().recv().unwrap(),
                            1 => one_tx.lock().unwrap().send(()).unwrap(),
                            _ => {}
                        }
                        i * 10
                    },
                    |v| {
                        seen.push(v / 10);
                        Ok::<(), ()>(())
                    },
                )
            }));
            let message = caught.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            });
            done_tx.send((seen, message)).unwrap();
        });
        let out = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("ordered_lookahead hung");
        helper.join().unwrap();
        out
    }

    #[test]
    fn lookahead_yields_index_order_and_reraises_a_panic_without_hanging() {
        let inline = drive_lookahead(1, 10, usize::MAX);
        assert_eq!(inline, ((0..10).collect(), None));
        for threads in [1, 2, 4] {
            assert_eq!(drive_lookahead(threads, 10, usize::MAX), inline);
            let (seen, message) = drive_lookahead(threads, 10, 6);
            assert_eq!(seen, (0..6).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(message.as_deref(), Some("item 6 panicked"));
        }
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
                .nodes()
                .map(|n| kg.intern_node(n.kind, n.text))
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
