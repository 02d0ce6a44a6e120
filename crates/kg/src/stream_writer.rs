//! The snapshot encoder: freeze a paper-magnitude graph to disk without
//! ever holding the merged edge list and the CSR arrays in memory at the
//! same time.
//!
//! Freezing through the mutable store needs the whole store and the
//! serialised buffer resident at once — at COSMO scale (29M edges ≈ 800 MB
//! of `Edge` plus the store's per-edge index entries) that multiplies into
//! many gigabytes. The streaming pair in this module caps the resident
//! set, and is also the one encoder
//! [`KnowledgeGraph::freeze`](crate::store::KnowledgeGraph::freeze) runs
//! (with a buffer that never spills, finishing into memory):
//!
//! * [`StreamInterner`] — node interning straight into the final arena
//!   layout (kinds + text offsets + one concatenated `String`), indexed by
//!   a `u64` key hash instead of owned `(kind, String)` keys. It is also
//!   the mutable store's node table, so `freeze` encodes it as is.
//! * [`SnapshotStreamWriter`] — accepts edges in arrival order, buffers a
//!   bounded window, and spills each window to a temp file as a run sorted
//!   by the CSR key `(head, relation, tail)` (stable, so arrival order
//!   survives within equal keys). `finish` then k-way-merges the runs
//!   **twice**: pass 1 counts merged edges and per-node degrees (giving the
//!   exact section layout), pass 2 re-merges while the file is written
//!   strictly front to back through a checksumming writer. Duplicate keys
//!   are folded exactly like `KnowledgeGraph::add_edge` (first arrival kept,
//!   `support += max(s,1)`, score maxima), so the emitted file is
//!   **byte-identical** to `freeze()` of a store fed the same intern/edge
//!   sequence — locked by the unit and property tests below, and by
//!   pinned digests of the bytes.
//!
//! Peak memory is `O(buffer + n)` — the edge buffer window, the interner
//! arena, the two `(n+1)` offset arrays, the `m × u32` in-edge permutation
//! with its `m × u16` bucket offsets, and the lookup records — but never
//! the merged `m × Edge` vector, which only ever exists on disk. The
//! checksum is produced *while streaming* by
//! [`HashingWriter`], which replicates `FxHasher::write`'s 8-byte word
//! walk (and its tail rule) across arbitrarily chunked writes, so the
//! header checksum equals `hash_bytes(&file[64..])` without a second read.

use crate::schema::{NodeKind, Relation};
use crate::snapshot::{
    align_up, behavior_from_u8, behavior_to_u8, kind_to_u8, section_lens, SnapshotError, EDGE_SIZE,
    FIRST_SECTION_OFF, FORMAT_VERSION_V2, HEADER_LEN_V2, LOOKUP_SIZE, MAGIC, SECTION_COUNT,
    TABLE_OFF,
};
use crate::store::{Edge, NodeId};
use cosmo_text::hash::{hash_bytes, hash_bytes_ns, FxHasher};
use cosmo_text::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs for [`SnapshotStreamWriter`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Edges buffered in memory before a sorted run is spilled to disk.
    /// The default (2M edges ≈ 56 MB) keeps paper-scale freezes well under
    /// a laptop budget; tests shrink it to force multi-run merges.
    pub buffer_edges: usize,
    /// Directory for spill runs; defaults to `std::env::temp_dir()`. The
    /// writer creates (and removes) a unique subdirectory underneath.
    pub spill_dir: Option<PathBuf>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            buffer_edges: 2_000_000,
            spill_dir: None,
        }
    }
}

/// What a finished streaming freeze produced.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Interned nodes.
    pub nodes: usize,
    /// Merged (deduplicated) edges in the snapshot.
    pub edges: usize,
    /// Edges pushed before merging.
    pub raw_edges: u64,
    /// Sorted runs spilled to disk (the in-memory tail run is not counted).
    pub spill_runs: usize,
    /// Total bytes written to spill files.
    pub spilled_bytes: u64,
    /// Final snapshot file size in bytes.
    pub file_bytes: u64,
}

/// Byte offset of the header's checksum field.
const CHECKSUM_OFF: usize = 40;

/// Monotonic tag so concurrent writers in one process never share a spill
/// directory.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Node interning directly into the frozen arena layout.
///
/// Ids are assigned densely in first-intern order. It is also the node
/// table of [`KnowledgeGraph`](crate::store::KnowledgeGraph), so feeding
/// the same `(kind, text)` sequence to the store and to a streaming
/// writer yields identical ids, which is what keeps the streamed snapshot
/// byte-identical to the in-memory freeze. The index maps a 64-bit key
/// hash to the id; genuine hash collisions (vanishingly rare at u64 width,
/// but checked — never assumed away) fall back to a linear side list.
#[derive(Debug, Clone)]
pub struct StreamInterner {
    kinds: Vec<NodeKind>,
    /// `n+1` arena byte offsets, exactly the frozen `text_offsets` section.
    text_offsets: Vec<u32>,
    arena: String,
    index: FxHashMap<u64, u32>,
    /// `(key hash, id)` pairs for nodes whose key hash collided with an
    /// earlier, different `(kind, text)`.
    collisions: Vec<(u64, u32)>,
}

impl Default for StreamInterner {
    fn default() -> Self {
        StreamInterner {
            kinds: Vec::new(),
            text_offsets: vec![0],
            arena: String::new(),
            index: FxHashMap::default(),
            collisions: Vec::new(),
        }
    }
}

impl StreamInterner {
    /// Empty interner.
    pub fn new() -> Self {
        StreamInterner::default()
    }

    fn key_hash(kind: NodeKind, text: &str) -> u64 {
        hash_bytes_ns(text.as_bytes(), kind_to_u8(kind) as u32)
    }

    fn matches(&self, id: u32, kind: NodeKind, text: &str) -> bool {
        self.kinds[id as usize] == kind && self.node_text(id) == text
    }

    fn push_node(&mut self, kind: NodeKind, text: &str) -> u32 {
        // PANIC: u32 ids/offsets are the snapshot format's hard capacity;
        // overflowing them is unrepresentable on disk, so the writer stops
        // here rather than emitting a snapshot that cannot round-trip.
        let id = u32::try_from(self.kinds.len()).expect("node count exceeds u32 id space");
        self.kinds.push(kind);
        self.arena.push_str(text);
        // PANIC: same u32 format capacity as the id space above
        let end = u32::try_from(self.arena.len()).expect("arena exceeds u32 offset space");
        self.text_offsets.push(end);
        id
    }

    /// Intern a node, returning its id (idempotent per `(kind, text)`).
    pub fn intern(&mut self, kind: NodeKind, text: &str) -> NodeId {
        let key = Self::key_hash(kind, text);
        if let Some(&id) = self.index.get(&key) {
            if self.matches(id, kind, text) {
                return NodeId(id);
            }
            for &(h, cid) in &self.collisions {
                if h == key && self.matches(cid, kind, text) {
                    return NodeId(cid);
                }
            }
            let id = self.push_node(kind, text);
            self.collisions.push((key, id));
            return NodeId(id);
        }
        let id = self.push_node(kind, text);
        self.index.insert(key, id);
        NodeId(id)
    }

    /// Append a node the caller knows was never interned and never will
    /// be, without hashing it into the lookup index: the id and bytes are
    /// the ones [`StreamInterner::intern`] would give it, but
    /// [`StreamInterner::find`] and `intern` do not see it. For generators
    /// whose texts are unique by construction.
    pub fn append_unique(&mut self, kind: NodeKind, text: &str) -> NodeId {
        NodeId(self.push_node(kind, text))
    }

    /// Look up an already-interned node.
    pub fn find(&self, kind: NodeKind, text: &str) -> Option<NodeId> {
        let key = Self::key_hash(kind, text);
        if let Some(&id) = self.index.get(&key) {
            if self.matches(id, kind, text) {
                return Some(NodeId(id));
            }
            return self
                .collisions
                .iter()
                .find(|&&(h, cid)| h == key && self.matches(cid, kind, text))
                .map(|&(_, cid)| NodeId(cid));
        }
        None
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Text of node `id`.
    pub fn node_text(&self, id: u32) -> &str {
        let s = self.text_offsets[id as usize] as usize;
        let e = self.text_offsets[id as usize + 1] as usize;
        &self.arena[s..e]
    }

    /// Kind of node `id`.
    pub fn node_kind(&self, id: u32) -> NodeKind {
        self.kinds[id as usize]
    }

    /// Arena length in bytes.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }
}

/// CSR sort key of an edge: the order of the snapshot's edge section.
#[inline]
fn edge_key(e: &Edge) -> (u32, u8, u32) {
    (e.head.0, e.relation.index() as u8, e.tail.0)
}

/// Stable sort by CSR key: arrival order survives within equal keys, which
/// is what gives the external merge `add_edge`'s first-arrival semantics.
fn sort_run(run: &mut [Edge]) {
    run.sort_by_key(edge_key);
}

fn encode_edge(e: &Edge) -> [u8; EDGE_SIZE] {
    let mut rec = [0u8; EDGE_SIZE];
    rec[0..4].copy_from_slice(&e.head.0.to_le_bytes());
    rec[4] = e.relation.index() as u8;
    rec[8..12].copy_from_slice(&e.tail.0.to_le_bytes());
    rec[12] = behavior_to_u8(e.behavior);
    rec[13] = e.category;
    rec[16..20].copy_from_slice(&e.plausibility.to_bits().to_le_bytes());
    rec[20..24].copy_from_slice(&e.typicality.to_bits().to_le_bytes());
    rec[24..28].copy_from_slice(&e.support.to_le_bytes());
    rec
}

/// Decode a spill record this process wrote; tags are still validated so a
/// torn or foreign file surfaces as `Corrupt`, not as a bad enum cast.
fn decode_edge(rec: &[u8; EDGE_SIZE]) -> Result<Edge, SnapshotError> {
    // Little-endian u32 at `at`; the record is a fixed-size array, so the
    // 4-byte slices below are statically in bounds.
    fn le32(rec: &[u8; EDGE_SIZE], at: usize) -> u32 {
        // PANIC: 4-byte slice of the fixed 28-byte spill record
        u32::from_le_bytes(rec[at..at + 4].try_into().unwrap())
    }
    let rel = *Relation::ALL
        .get(rec[4] as usize)
        .ok_or(SnapshotError::Corrupt("spill run: bad relation tag"))?;
    let behavior =
        behavior_from_u8(rec[12]).ok_or(SnapshotError::Corrupt("spill run: bad behavior tag"))?;
    Ok(Edge {
        head: NodeId(le32(rec, 0)),
        relation: rel,
        tail: NodeId(le32(rec, 8)),
        behavior,
        category: rec[13],
        plausibility: f32::from_bits(le32(rec, 16)),
        typicality: f32::from_bits(le32(rec, 20)),
        support: le32(rec, 24),
    })
}

/// One source feeding the k-way merge: a spilled run file or the in-memory
/// tail run.
enum RunCursor<'a> {
    Mem { edges: &'a [Edge], pos: usize },
    File { reader: BufReader<File> },
}

impl RunCursor<'_> {
    fn next_edge(&mut self) -> Result<Option<Edge>, SnapshotError> {
        match self {
            RunCursor::Mem { edges, pos } => {
                let e = edges.get(*pos).cloned();
                *pos += e.is_some() as usize;
                Ok(e)
            }
            RunCursor::File { reader } => {
                let mut rec = [0u8; EDGE_SIZE];
                match reader.read_exact(&mut rec) {
                    Ok(()) => decode_edge(&rec).map(Some),
                    Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(None),
                    Err(e) => Err(e.into()),
                }
            }
        }
    }
}

/// K-way merge of sorted runs with `add_edge`-equivalent duplicate folding.
///
/// Ties on the CSR key pop lowest run index first; runs are in spill
/// (= arrival) order and each run is stable-sorted, so equal keys replay in
/// global arrival order: the first occurrence keeps its payload verbatim
/// and every later one folds in as `support += max(s,1)` + score maxima —
/// exactly what a sequential `KnowledgeGraph::add_edge` feed produces.
type HeapEntry = Reverse<((u32, u8, u32), usize)>;

fn merge_runs(
    cursors: &mut [RunCursor<'_>],
    mut emit: impl FnMut(Edge) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut heads: Vec<Option<Edge>> = Vec::with_capacity(cursors.len());
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    for (i, c) in cursors.iter_mut().enumerate() {
        let head = c.next_edge()?;
        if let Some(e) = &head {
            heap.push(Reverse((edge_key(e), i)));
        }
        heads.push(head);
    }
    let mut pending: Option<Edge> = None;
    while let Some(Reverse((key, idx))) = heap.pop() {
        // PANIC: heads[idx] is refilled whenever its key is re-pushed
        let e = heads[idx].take().expect("heap entry has a buffered edge");
        if let Some(next) = cursors[idx].next_edge()? {
            heap.push(Reverse((edge_key(&next), idx)));
            heads[idx] = Some(next);
        }
        match &mut pending {
            Some(p) if edge_key(p) == key => {
                p.support += e.support.max(1);
                p.plausibility = p.plausibility.max(e.plausibility);
                p.typicality = p.typicality.max(e.typicality);
            }
            _ => {
                if let Some(done) = pending.take() {
                    emit(done)?;
                }
                pending = Some(e);
            }
        }
    }
    if let Some(done) = pending.take() {
        emit(done)?;
    }
    Ok(())
}

/// A `Write` wrapper that feeds every byte to an [`FxHasher`] in the exact
/// word walk `FxHasher::write` performs on a single contiguous slice: full
/// 8-byte little-endian words in stream order (an internal carry joins
/// words across write boundaries), with the `<8`-byte tail folded in under
/// the same length-tagged rule at [`finish_hash`](Self::finish_hash). The
/// resulting digest equals `hash_bytes` of the concatenated stream.
struct HashingWriter<W: Write> {
    inner: W,
    hasher: FxHasher,
    carry: [u8; 8],
    carry_len: usize,
    /// Bytes written through this wrapper (hashed or not).
    written: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hasher: FxHasher::default(),
            carry: [0; 8],
            carry_len: 0,
            written: 0,
        }
    }

    /// Write without hashing — only for the header, which the checksum
    /// excludes.
    fn write_unhashed(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.inner.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.inner.write_all(bytes)?;
        self.written += bytes.len() as u64;
        self.feed(bytes);
        Ok(())
    }

    fn feed(&mut self, mut bytes: &[u8]) {
        if self.carry_len > 0 {
            let take = (8 - self.carry_len).min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < 8 {
                return;
            }
            self.hasher.write(&self.carry);
            self.carry_len = 0;
        }
        let full = bytes.len() & !7;
        let (words, rest) = bytes.split_at(full);
        if !words.is_empty() {
            // Exact multiple of 8: FxHasher::write takes only the word path.
            self.hasher.write(words);
        }
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carry_len = rest.len();
    }

    /// Zero-fill up to absolute stream offset `target` (section padding).
    fn pad_to(&mut self, target: u64) -> Result<(), SnapshotError> {
        debug_assert!(target >= self.written && target - self.written < 64);
        let zeros = [0u8; 64];
        let pad = (target - self.written) as usize;
        if pad > 0 {
            self.write(&zeros[..pad])?;
        }
        Ok(())
    }

    /// Fold the tail carry exactly as `FxHasher::write` folds a `<8`-byte
    /// remainder, and return the digest.
    fn finish_hash(&mut self) -> u64 {
        if self.carry_len > 0 {
            let mut buf = [0u8; 8];
            buf[..self.carry_len].copy_from_slice(&self.carry[..self.carry_len]);
            buf[7] = self.carry_len as u8;
            self.hasher.write(&buf);
            self.carry_len = 0;
        }
        self.hasher.finish()
    }
}

/// Streaming writer for the v2 snapshot format. See the module docs for the
/// spill/merge layout and the byte-identity contract.
pub struct SnapshotStreamWriter {
    buffer_edges: usize,
    spill_dir: PathBuf,
    spill_dir_created: bool,
    buffer: Vec<Edge>,
    runs: Vec<PathBuf>,
    raw_edges: u64,
    spilled_bytes: u64,
}

impl SnapshotStreamWriter {
    /// New writer with the given options.
    pub fn new(opts: StreamOptions) -> SnapshotStreamWriter {
        let base = opts
            .spill_dir
            .unwrap_or_else(std::env::temp_dir)
            .join(format!(
                "cosmo-stream-{}-{}",
                std::process::id(),
                SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
        SnapshotStreamWriter {
            buffer_edges: opts.buffer_edges.max(1),
            spill_dir: base,
            spill_dir_created: false,
            buffer: Vec::new(),
            runs: Vec::new(),
            raw_edges: 0,
            spilled_bytes: 0,
        }
    }

    /// Add one edge (node ids from the companion [`StreamInterner`]).
    /// Arrival order is observable only through duplicate folding, which
    /// mirrors `KnowledgeGraph::add_edge`.
    pub fn push(&mut self, edge: Edge) -> Result<(), SnapshotError> {
        self.buffer.push(edge);
        self.raw_edges += 1;
        if self.buffer.len() >= self.buffer_edges {
            self.spill()?;
        }
        Ok(())
    }

    /// Edges pushed so far (before duplicate folding).
    pub fn raw_edges(&self) -> u64 {
        self.raw_edges
    }

    fn spill(&mut self) -> Result<(), SnapshotError> {
        if !self.spill_dir_created {
            std::fs::create_dir_all(&self.spill_dir)?;
            self.spill_dir_created = true;
        }
        sort_run(&mut self.buffer);
        let path = self
            .spill_dir
            .join(format!("run-{:05}.edges", self.runs.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for e in &self.buffer {
            w.write_all(&encode_edge(e))?;
        }
        w.flush()?;
        self.spilled_bytes += (self.buffer.len() * EDGE_SIZE) as u64;
        self.runs.push(path);
        self.buffer.clear();
        Ok(())
    }

    fn cursors(&self) -> Result<Vec<RunCursor<'_>>, SnapshotError> {
        let mut cursors = Vec::with_capacity(self.runs.len() + 1);
        for path in &self.runs {
            cursors.push(RunCursor::File {
                reader: BufReader::with_capacity(1 << 20, File::open(path)?),
            });
        }
        // The in-memory tail run holds the latest arrivals, so it merges
        // after every spilled run on key ties.
        cursors.push(RunCursor::Mem {
            edges: &self.buffer,
            pos: 0,
        });
        Ok(cursors)
    }

    /// Merge the runs and write the finished snapshot to `path`, flushed
    /// and synced to disk.
    pub fn finish(
        mut self,
        nodes: &StreamInterner,
        path: &Path,
    ) -> Result<StreamStats, SnapshotError> {
        let file = File::create(path)?;
        let (w, checksum, stats) = self.encode(nodes, BufWriter::with_capacity(1 << 20, file))?;
        let mut file = w
            .into_inner()
            .map_err(|e| SnapshotError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(CHECKSUM_OFF as u64))?;
        file.write_all(&checksum.to_le_bytes())?;
        file.sync_all()?;
        Ok(stats)
    }

    /// Merge the runs into an in-memory snapshot buffer.
    pub(crate) fn finish_in_memory(
        mut self,
        nodes: &StreamInterner,
    ) -> Result<Vec<u8>, SnapshotError> {
        let (mut bytes, checksum, _) = self.encode(nodes, Vec::new())?;
        bytes[CHECKSUM_OFF..CHECKSUM_OFF + 8].copy_from_slice(&checksum.to_le_bytes());
        Ok(bytes)
    }

    /// Lay out and encode the snapshot into `sink`, front to back. The
    /// header's checksum field is left zero; the digest is returned for
    /// the caller to patch in at [`CHECKSUM_OFF`].
    fn encode<W: Write>(
        &mut self,
        nodes: &StreamInterner,
        sink: W,
    ) -> Result<(W, u64, StreamStats), SnapshotError> {
        let n = nodes.len();
        sort_run(&mut self.buffer);

        // Pass 1: merged edge count and per-node degrees → exact layout.
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        let mut merged: u64 = 0;
        {
            let mut cursors = self.cursors()?;
            merge_runs(&mut cursors, |e| {
                let (h, t) = (e.head.0 as usize, e.tail.0 as usize);
                if h >= n || t >= n {
                    return Err(SnapshotError::Corrupt("stream edge endpoint out of range"));
                }
                if merged >= u32::MAX as u64 {
                    return Err(SnapshotError::Corrupt("counts exceed u32 id space"));
                }
                out_offsets[h + 1] += 1;
                in_offsets[t + 1] += 1;
                merged += 1;
                Ok(())
            })?;
        }
        let m = merged as usize;
        for i in 1..=n {
            out_offsets[i] += out_offsets[i - 1];
            in_offsets[i] += in_offsets[i - 1];
        }

        // Layout: each section starts where the previous one ends, rounded
        // up to the alignment boundary — the rule the reader checks.
        let lens = section_lens(n, m, nodes.arena.len())?;
        let mut offsets = [0usize; SECTION_COUNT];
        let mut cursor = FIRST_SECTION_OFF;
        for (off, len) in offsets.iter_mut().zip(lens) {
            *off = cursor;
            cursor = align_up(cursor + len)
                .ok_or(SnapshotError::Corrupt("section sizes overflow layout"))?;
        }
        let total_len = offsets[SECTION_COUNT - 1] + lens[SECTION_COUNT - 1];

        let mut lookup: Vec<(u8, u64, u32)> = (0..n)
            .map(|i| {
                let s = nodes.text_offsets[i] as usize;
                let e = nodes.text_offsets[i + 1] as usize;
                (
                    kind_to_u8(nodes.kinds[i]),
                    hash_bytes(&nodes.arena.as_bytes()[s..e]),
                    i as u32,
                )
            })
            .collect();
        lookup.sort_unstable();

        let mut w = HashingWriter::new(sink);

        // Header — excluded from the checksum, which is patched in last.
        let mut header = [0u8; HEADER_LEN_V2];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION_V2.to_le_bytes());
        header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(m as u64).to_le_bytes());
        header[32..40].copy_from_slice(&(nodes.arena.len() as u64).to_le_bytes());
        header[48..56].copy_from_slice(&(total_len as u64).to_le_bytes());
        w.write_unhashed(&header)?;

        let mut table = [0u8; SECTION_COUNT * 16];
        for i in 0..SECTION_COUNT {
            table[i * 16..i * 16 + 8].copy_from_slice(&(offsets[i] as u64).to_le_bytes());
            table[i * 16 + 8..i * 16 + 16].copy_from_slice(&(lens[i] as u64).to_le_bytes());
        }
        debug_assert_eq!(TABLE_OFF as u64, w.written);
        w.write(&table)?;

        // Section 0: kinds, chunked through a small scratch buffer.
        let mut scratch = [0u8; 4096];
        for chunk in nodes.kinds.chunks(scratch.len()) {
            for (d, &k) in scratch.iter_mut().zip(chunk) {
                *d = kind_to_u8(k);
            }
            w.write(&scratch[..chunk.len()])?;
        }
        w.pad_to(offsets[1] as u64)?;

        // Section 1: text offsets. Section 2: arena.
        write_u32s_chunked(&mut w, &nodes.text_offsets)?;
        w.pad_to(offsets[2] as u64)?;
        w.write(nodes.arena.as_bytes())?;
        w.pad_to(offsets[3] as u64)?;

        // Section 3: edges — pass 2 re-merges the runs and writes the merged
        // records to the sink a chunk at a time, while the in-edge
        // permutation (the only m-sized array this pass materialises) fills
        // by a counting sort on the tail, stable in edge index.
        let mut in_sort = InEdgeSort::new(&in_offsets);
        let mut chunk: Vec<u8> = Vec::with_capacity(EDGE_CHUNK * EDGE_SIZE);
        let mut next_index: u64 = 0;
        {
            let mut cursors = self.cursors()?;
            merge_runs(&mut cursors, |e| {
                if next_index >= merged {
                    return Err(runs_changed());
                }
                chunk.extend_from_slice(&encode_edge(&e));
                if chunk.len() == chunk.capacity() {
                    w.write(&chunk)?;
                    chunk.clear();
                }
                in_sort.push(e.tail.0, next_index as u32)?;
                next_index += 1;
                Ok(())
            })?;
        }
        w.write(&chunk)?;
        if next_index != merged {
            return Err(runs_changed());
        }
        let in_edges = in_sort.finish()?;
        w.pad_to(offsets[4] as u64)?;

        // Sections 4–7: offset arrays, in-edges, lookup records.
        write_u32s_chunked(&mut w, &out_offsets)?;
        w.pad_to(offsets[5] as u64)?;
        write_u32s_chunked(&mut w, &in_offsets)?;
        w.pad_to(offsets[6] as u64)?;
        write_u32s_chunked(&mut w, &in_edges)?;
        w.pad_to(offsets[7] as u64)?;
        for &(k, h, id) in &lookup {
            let mut rec = [0u8; LOOKUP_SIZE];
            rec[..8].copy_from_slice(&h.to_le_bytes());
            rec[8..12].copy_from_slice(&id.to_le_bytes());
            rec[12] = k;
            w.write(&rec)?;
        }

        if w.written != total_len as u64 {
            return Err(SnapshotError::Corrupt("streamed section sizes drifted"));
        }
        let checksum = w.finish_hash();
        let stats = StreamStats {
            nodes: n,
            edges: m,
            raw_edges: self.raw_edges,
            spill_runs: self.runs.len(),
            spilled_bytes: self.spilled_bytes,
            file_bytes: total_len as u64,
        };
        Ok((w.inner, checksum, stats))
    }
}

/// Merged edges encoded per sink write in pass 2.
const EDGE_CHUNK: usize = 2048;

/// Tails per in-edge bucket are `2^shift`, with `shift` in this range: at
/// least a cache-sized bucket, at most what a `u16` offset addresses.
const MIN_BUCKET_SHIFT: u32 = 10;
const MAX_BUCKET_SHIFT: u32 = 16;

/// The in-edge permutation — edge indices stably sorted by tail — built by
/// a counting sort in two cache-friendly steps. A direct scatter writes at
/// random over the whole `m`-entry array, which at a million edges costs
/// more than the rest of the pass. Instead, [`push`](Self::push) appends
/// each edge index to its tail *bucket*'s range of the output (a bucket is
/// `2^shift` consecutive tails, and there are about 256 buckets, so the
/// appends are a few hundred sequential streams) and records the tail's
/// offset in the bucket. [`finish`](Self::finish) then scatters each
/// bucket's range, small enough to stay in cache, by that offset. Both
/// steps keep push order within a tail, so the result equals the direct
/// scatter.
struct InEdgeSort<'a> {
    /// `n + 1` prefix sums of the in-degrees.
    in_offsets: &'a [u32],
    shift: u32,
    /// Next free slot of each bucket's range.
    bucket_next: Vec<u32>,
    /// The output: edge indices, grouped by bucket until `finish`.
    in_edges: Vec<u32>,
    /// Each slot's tail offset within its bucket.
    tail_in_bucket: Vec<u16>,
}

impl<'a> InEdgeSort<'a> {
    fn new(in_offsets: &'a [u32]) -> InEdgeSort<'a> {
        let n = in_offsets.len() - 1;
        let m = in_offsets[n] as usize;
        let bits = usize::BITS - n.leading_zeros();
        let shift = bits
            .saturating_sub(8)
            .clamp(MIN_BUCKET_SHIFT, MAX_BUCKET_SHIFT);
        InEdgeSort {
            in_offsets,
            shift,
            bucket_next: in_offsets.iter().step_by(1 << shift).copied().collect(),
            in_edges: vec![0; m],
            tail_in_bucket: vec![0; m],
        }
    }

    fn push(&mut self, tail: u32, index: u32) -> Result<(), SnapshotError> {
        let next = self
            .bucket_next
            .get_mut((tail >> self.shift) as usize)
            .ok_or_else(runs_changed)?;
        let at = *next as usize;
        *self.in_edges.get_mut(at).ok_or_else(runs_changed)? = index;
        self.tail_in_bucket[at] = (tail & ((1 << self.shift) - 1)) as u16;
        *next += 1;
        Ok(())
    }

    fn finish(mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.in_offsets.len() - 1;
        let (mut staged, mut cursor) = (Vec::new(), Vec::new());
        for (b, &next) in self.bucket_next.iter().enumerate() {
            let first = b << self.shift;
            let end = (first + (1 << self.shift)).min(n);
            let (lo, hi) = (
                self.in_offsets[first] as usize,
                self.in_offsets[end] as usize,
            );
            if next as usize != hi {
                return Err(runs_changed());
            }
            staged.clear();
            staged.extend_from_slice(&self.in_edges[lo..hi]);
            cursor.clear();
            cursor.extend_from_slice(&self.in_offsets[first..end]);
            for (&index, &t) in staged.iter().zip(&self.tail_in_bucket[lo..hi]) {
                let c = cursor.get_mut(t as usize).ok_or_else(runs_changed)?;
                *self
                    .in_edges
                    .get_mut(*c as usize)
                    .ok_or_else(runs_changed)? = index;
                *c += 1;
            }
            // Every tail filled exactly its own range.
            if cursor[..] != self.in_offsets[first + 1..=end] {
                return Err(runs_changed());
            }
        }
        Ok(self.in_edges)
    }
}

fn runs_changed() -> SnapshotError {
    SnapshotError::Corrupt("spill runs changed between passes")
}

impl Drop for SnapshotStreamWriter {
    fn drop(&mut self) {
        // Best-effort spill cleanup; the files are in a writer-unique dir.
        if self.spill_dir_created {
            let _ = std::fs::remove_dir_all(&self.spill_dir);
        }
    }
}

fn write_u32s_chunked<W: Write>(
    w: &mut HashingWriter<W>,
    values: &[u32],
) -> Result<(), SnapshotError> {
    let mut scratch = [0u8; 4096];
    for chunk in values.chunks(scratch.len() / 4) {
        for (i, v) in chunk.iter().enumerate() {
            scratch[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        w.write(&scratch[..chunk.len() * 4])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::BehaviorKind;
    use crate::snapshot::{KgSnapshotView, Verify};
    use crate::store::KnowledgeGraph;
    use proptest::prelude::*;

    /// One intern-and-edge op replayed identically into the store and the
    /// streaming pair.
    #[derive(Debug, Clone)]
    struct Op {
        head_kind: NodeKind,
        head: String,
        relation: Relation,
        tail: String,
        plausibility: f32,
        typicality: f32,
        support: u32,
        category: u8,
    }

    fn unique_out_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cosmo-streamed-{}-{}-{}.kg2",
            tag,
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Feed `ops` to the store and to a file-backed streaming writer and
    /// assert the file is byte-identical to the store's `freeze()`.
    /// Returns the file bytes.
    fn assert_byte_identical(tag: &str, ops: &[Op], buffer_edges: usize) -> Vec<u8> {
        let mut kg = KnowledgeGraph::new();
        let mut interner = StreamInterner::new();
        let mut writer = SnapshotStreamWriter::new(StreamOptions {
            buffer_edges,
            spill_dir: None,
        });
        for op in ops {
            let h = kg.intern_node(op.head_kind, &op.head);
            let hs = interner.intern(op.head_kind, &op.head);
            assert_eq!(h, hs, "intern id drift on head {:?}", op.head);
            let t = kg.intern_node(NodeKind::Intention, &op.tail);
            let ts = interner.intern(NodeKind::Intention, &op.tail);
            assert_eq!(t, ts, "intern id drift on tail {:?}", op.tail);
            let edge = Edge {
                head: h,
                relation: op.relation,
                tail: t,
                behavior: BehaviorKind::SearchBuy,
                category: op.category,
                plausibility: op.plausibility,
                typicality: op.typicality,
                support: op.support,
            };
            kg.add_edge(edge.clone());
            writer.push(edge).unwrap();
        }
        let out = unique_out_path(tag);
        let stats = writer.finish(&interner, &out).unwrap();
        let streamed = std::fs::read(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        let frozen = kg.freeze();
        let expect = frozen.as_bytes();
        assert_eq!(stats.edges, kg.num_edges());
        assert_eq!(stats.nodes, kg.num_nodes());
        assert_eq!(stats.file_bytes as usize, expect.len());
        if streamed != expect {
            let at = streamed
                .iter()
                .zip(expect)
                .position(|(a, b)| a != b)
                .unwrap_or(streamed.len().min(expect.len()));
            panic!(
                "streamed snapshot differs from freeze(): lens {} vs {}, first diff at byte {}",
                streamed.len(),
                expect.len(),
                at
            );
        }
        // And the streamed file must hold up under the strictest decoder.
        KgSnapshotView::from_bytes(streamed.clone(), Verify::Full).unwrap();
        streamed
    }

    /// Length and `hash_bytes` digest of the bytes the earlier owned-CSR
    /// encoder produced for the same op sequence: the reference both the
    /// file sink and the in-memory freeze are held to.
    fn assert_pinned(bytes: &[u8], len: usize, digest: u64) {
        assert_eq!(bytes.len(), len, "snapshot length drifted");
        assert_eq!(
            hash_bytes(bytes),
            digest,
            "snapshot bytes drifted from the pinned reference"
        );
    }

    fn op(head_kind: NodeKind, head: &str, rel: usize, tail: &str, p: f32, ty: f32) -> Op {
        Op {
            head_kind,
            head: head.to_string(),
            relation: Relation::ALL[rel % Relation::ALL.len()],
            tail: tail.to_string(),
            plausibility: p,
            typicality: ty,
            support: 1,
            category: (rel % 18) as u8,
        }
    }

    #[test]
    fn empty_graph_byte_identical() {
        let bytes = assert_byte_identical("empty", &[], 4);
        assert_pinned(&bytes, 384, 0x6d4b_e6b7_198d_c11e);
    }

    #[test]
    fn nodes_without_edges_byte_identical() {
        // Interned nodes but zero pushed edges: n > 0, m = 0.
        let mut kg = KnowledgeGraph::new();
        let mut interner = StreamInterner::new();
        for (k, t) in [
            (NodeKind::Query, "tent"),
            (NodeKind::Product, "tent"),
            (NodeKind::Intention, "camping trip"),
        ] {
            assert_eq!(kg.intern_node(k, t), interner.intern(k, t));
        }
        let out = unique_out_path("no-edges");
        let writer = SnapshotStreamWriter::new(StreamOptions {
            buffer_edges: 4,
            spill_dir: None,
        });
        let stats = writer.finish(&interner, &out).unwrap();
        let streamed = std::fs::read(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert_eq!(stats.edges, 0);
        assert_eq!(streamed, kg.freeze().as_bytes());
        assert_pinned(&streamed, 560, 0x67a8_9585_28f4_c6ff);
    }

    #[test]
    fn small_graph_no_spill_byte_identical() {
        let ops = vec![
            op(
                NodeKind::Query,
                "camping tent",
                2,
                "sleeping outdoors",
                0.9,
                0.7,
            ),
            op(
                NodeKind::Product,
                "air mattress",
                2,
                "sleeping outdoors",
                0.8,
                0.6,
            ),
            op(
                NodeKind::Query,
                "camping tent",
                5,
                "lakeside trip",
                0.7,
                0.4,
            ),
            op(NodeKind::Query, "rain jacket", 1, "staying dry", 0.95, 0.9),
        ];
        let bytes = assert_byte_identical("no-spill", &ops, 1 << 20);
        assert_pinned(&bytes, 864, 0xfec4_8437_14e8_4a56);
    }

    #[test]
    fn spilled_runs_byte_identical() {
        // Tiny buffer forces many runs; tails shared across heads exercise
        // the in-edge counting sort, and out-of-order heads the merge.
        let mut ops = Vec::new();
        for i in 0..97u32 {
            let h = (i * 37) % 23;
            ops.push(op(
                if h % 2 == 0 {
                    NodeKind::Query
                } else {
                    NodeKind::Product
                },
                &format!("head {h}"),
                (i % 7) as usize,
                &format!("intent {}", (i * 13) % 11),
                0.5 + (i % 5) as f32 * 0.1,
                (i % 10) as f32 * 0.1,
            ));
        }
        let bytes = assert_byte_identical("spill", &ops, 8);
        assert_pinned(&bytes, 4832, 0x5688_2fd3_492e_0d0d);
    }

    #[test]
    fn duplicate_merge_across_runs_byte_identical() {
        // The same (head, rel, tail) key recurs in different spill runs
        // with different scores/support: folding must replay arrival order.
        let mut ops = Vec::new();
        for round in 0..6u32 {
            for (i, p) in [(0u32, 0.3f32), (1, 0.9), (2, 0.5)] {
                let mut o = op(
                    NodeKind::Query,
                    &format!("head {i}"),
                    3,
                    "shared intent",
                    p + round as f32 * 0.05,
                    0.1 * round as f32,
                );
                o.support = 1 + (round + i) % 3;
                ops.push(o);
            }
        }
        let bytes = assert_byte_identical("dups", &ops, 4);
        assert_pinned(&bytes, 768, 0xeef8_2b3b_b872_bae5);
    }

    #[test]
    fn multibyte_text_byte_identical() {
        let ops = vec![
            op(
                NodeKind::Query,
                "zelt für camping",
                0,
                "übernachtung draußen",
                0.8,
                0.5,
            ),
            op(NodeKind::Product, "帐篷", 4, "野营之旅", 0.9, 0.6),
        ];
        let bytes = assert_byte_identical("utf8", &ops, 1);
        assert_pinned(&bytes, 704, 0xe243_398d_276e_f43c);
    }

    #[test]
    fn hashing_writer_matches_one_shot_hash() {
        // Chunk the same payload through the writer in awkward sizes; the
        // digest must equal hash_bytes of the whole slice.
        let payload: Vec<u8> = (0..1013u32).map(|i| (i * 131 + 7) as u8).collect();
        for chunks in [&[1usize, 7, 8, 3, 64, 930][..], &[1013], &[512, 501]] {
            let mut w = HashingWriter::new(Vec::new());
            let mut at = 0;
            for &c in chunks {
                w.write(&payload[at..at + c]).unwrap();
                at += c;
            }
            assert_eq!(at, payload.len());
            assert_eq!(w.finish_hash(), hash_bytes(&payload), "chunks {chunks:?}");
            assert_eq!(w.inner, payload);
        }
    }

    /// Edge tails over `n` nodes with uneven in-degrees, some zero, and
    /// the in-degree prefix sums they give.
    fn tails_and_offsets(n: u32, m: u64) -> (Vec<u32>, Vec<u32>) {
        let tails: Vec<u32> = (0..m)
            .map(|i| {
                let r = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                (r % (n as u64 / (1 + i % 3)).max(1)) as u32
            })
            .collect();
        let mut offsets = vec![0u32; n as usize + 1];
        for &t in &tails {
            offsets[t as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        (tails, offsets)
    }

    #[test]
    fn bucketed_in_edge_sort_matches_direct_scatter() {
        // 5,000 nodes span five 1,024-tail buckets, the last one partial.
        for (n, m) in [(5_000u32, 40_000u64), (1, 3), (3, 0), (0, 0)] {
            let (tails, offsets) = tails_and_offsets(n, m);
            let mut direct = vec![0u32; m as usize];
            let mut cursor = offsets.clone();
            for (i, &t) in tails.iter().enumerate() {
                direct[cursor[t as usize] as usize] = i as u32;
                cursor[t as usize] += 1;
            }
            let mut sort = InEdgeSort::new(&offsets);
            for (i, &t) in tails.iter().enumerate() {
                sort.push(t, i as u32).unwrap();
            }
            assert_eq!(sort.finish().unwrap(), direct, "n={n} m={m}");
        }
    }

    #[test]
    fn in_edge_sort_rejects_tails_that_changed_since_counting() {
        let (mut tails, offsets) = tails_and_offsets(5_000, 10_000);
        // Same bucket, different tail: bucket totals still agree.
        tails[17] ^= 1;
        let mut sort = InEdgeSort::new(&offsets);
        for (i, &t) in tails.iter().enumerate() {
            sort.push(t, i as u32).unwrap();
        }
        assert!(matches!(sort.finish(), Err(SnapshotError::Corrupt(_))));
        // One edge more than counted.
        let mut sort = InEdgeSort::new(&offsets);
        let pushed: Result<(), _> = tails
            .iter()
            .chain([&tails[0]])
            .enumerate()
            .try_for_each(|(i, &t)| sort.push(t, i as u32));
        assert!(pushed.is_err() || sort.finish().is_err());
    }

    #[test]
    fn default_interner_round_trips_text() {
        let mut interner = StreamInterner::default();
        let id = interner.intern(NodeKind::Query, "tent");
        assert_eq!(interner.node_text(id.0), "tent");
        assert_eq!(interner.node_kind(id.0), NodeKind::Query);
        assert_eq!(interner.find(NodeKind::Query, "tent"), Some(id));
    }

    #[test]
    fn append_unique_matches_intern_but_stays_out_of_the_index() {
        let (mut interned, mut appended) = (StreamInterner::new(), StreamInterner::new());
        for (kind, text) in [
            (NodeKind::Query, "tent"),
            (NodeKind::Intention, "camping"),
            (NodeKind::Product, "stove"),
        ] {
            let want = interned.intern(kind, text);
            let got = if kind == NodeKind::Intention {
                appended.intern(kind, text)
            } else {
                appended.append_unique(kind, text)
            };
            assert_eq!(got, want);
            assert_eq!(appended.node_text(got.0), text);
            assert_eq!(appended.node_kind(got.0), kind);
        }
        assert_eq!(appended.arena_len(), interned.arena_len());
        assert_eq!(appended.find(NodeKind::Query, "tent"), None);
        assert_eq!(
            appended.find(NodeKind::Intention, "camping"),
            Some(NodeId(1))
        );
    }

    #[test]
    fn interner_matches_store_on_collision_probe() {
        // Dense short strings sweep the index paths (including repeated
        // interning); ids must track KnowledgeGraph::intern_node exactly.
        let mut kg = KnowledgeGraph::new();
        let mut interner = StreamInterner::new();
        for i in 0..500u32 {
            let text = format!("t{}", i % 170);
            let kind = match i % 3 {
                0 => NodeKind::Product,
                1 => NodeKind::Query,
                _ => NodeKind::Intention,
            };
            assert_eq!(kg.intern_node(kind, &text), interner.intern(kind, &text));
            assert_eq!(
                interner.find(kind, &text),
                Some(kg.find_node(kind, &text).unwrap())
            );
        }
        assert_eq!(interner.len(), kg.num_nodes());
        assert!(interner.find(NodeKind::Query, "never interned").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_graphs_byte_identical(
            raw in proptest::collection::vec(
                ((0u8..3, 0u8..6, 0usize..15), (0u8..8, 0u32..1000, 0u32..1000, 1u32..3)),
                0..60,
            ),
            buffer_choice in 0usize..3,
        ) {
            let buffer = [2usize, 7, 1024][buffer_choice];
            let ops: Vec<Op> = raw
                .into_iter()
                .map(|((hk, hid, rel), (tid, p, ty, support))| {
                    let mut o = op(
                        match hk { 0 => NodeKind::Product, 1 => NodeKind::Query, _ => NodeKind::Intention },
                        &format!("h{hid}"),
                        rel,
                        &format!("t{tid}"),
                        p as f32 / 1000.0,
                        ty as f32 / 1000.0,
                    );
                    o.support = support;
                    o
                })
                .collect();
            assert_byte_identical("prop", &ops, buffer);
        }
    }
}
