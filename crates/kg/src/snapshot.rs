//! The frozen knowledge graph: one binary format, read in place.
//!
//! The paper's online system (Figure 5) serves a graph that is
//! materialised *offline* and only ever read at serving time. This module
//! is the read side of that split. The format lays each CSR array out
//! exactly as it lives in memory —
//!
//! ```text
//! [ 64-byte header ][ section table: 8 × (offset u64, len u64) ]
//! [ kinds: n × u8          ]  (each section starts 64-byte aligned,
//! [ text_offsets: (n+1)×u32]   zero-padded up to the next section)
//! [ arena: UTF-8 bytes     ]
//! [ edges: m × Edge (28 B) ]  ← the repr(C) layout of `Edge` itself
//! [ out_offsets: (n+1)×u32 ]
//! [ in_offsets:  (n+1)×u32 ]
//! [ in_edges: m × u32      ]
//! [ lookup: n × LookupRec  ]  (hash u64, id u32, kind u8, pad ×3)
//! ```
//!
//! — so [`KgSnapshotView`] serves every read straight out of a borrowed
//! `&[u8]`: an `mmap` region from [`cosmo_mapped::MappedBytes`] for a
//! file, or an owned aligned buffer for
//! [`KnowledgeGraph::freeze`](crate::store::KnowledgeGraph::freeze).
//! Nothing is materialised at load: opening is O(pages touched), and
//! concurrent server processes share one physical copy of the file.
//!
//! * **CSR adjacency**: edges sorted by `(head, relation, tail)` with an
//!   `n+1` prefix-offset array; `tails_of` is a contiguous slice and
//!   `tails_of_rel` binary-searches the relation run inside it. The
//!   in-direction is a second offset array over edge indices sorted by
//!   `(tail, edge index)`.
//! * **Text arena**: all node text in one UTF-8 section plus an `n+1`
//!   offset table.
//! * **Sorted lookup index**: `(kind, text hash, id)` records,
//!   binary-searched by `find_node` with text verification on hash hits.
//!
//! Adjacency order matches the mutable store's sorted adjacency exactly,
//! so every read answer is bitwise-identical across the two backends.
//! The only encoder is [`crate::stream_writer::SnapshotStreamWriter`].
//!
//! ## Validation levels
//!
//! All integer arithmetic over untrusted header/table fields is checked
//! (`checked_add`/`checked_mul` → [`SnapshotError::Corrupt`]). Two
//! verification levels trade scan cost against rigor:
//!
//! * [`Verify::Structural`] — everything *panic-freedom and memory
//!   safety* require: header/table geometry, enum tag scans (node kinds,
//!   edge relation/behavior bytes — casting an invalid discriminant
//!   would be UB), UTF-8 arena + char-boundary offsets, monotone offset
//!   arrays bounded by their targets, edge endpoints `< n`, in-edge
//!   indices `< m`, strict edge sort order, sorted lookup with ids `< n`.
//!   One pass over the file; this is the level the serving reload path's
//!   *open* uses for the O(pages) claim.
//! * [`Verify::Full`] — Structural **plus** the payload checksum, exact
//!   prefix-offset recomputation, in-edge grouping, and lookup-vs-node
//!   hash verification. Used when publishing a snapshot into a live
//!   server (`/ops/reload`) and by the corruption property tests.
//!
//! ## Endianness
//!
//! The borrowed view reinterprets little-endian file bytes as host
//! integers, so the mapped path is little-endian-only (checked at load;
//! big-endian hosts get a clean `Corrupt` error). Both supported targets
//! (x86_64, aarch64) are little-endian.

use crate::schema::{BehaviorKind, NodeKind, Relation};
use crate::store::{Edge, NodeId};
use crate::view::GraphView;
use crate::zerocopy::{cast_slice, str_from_validated, LookupRec};
use cosmo_mapped::MappedBytes;
use cosmo_text::hash::hash_bytes;
use std::path::Path;

/// File magic: "COSMOKG" + NUL.
pub const MAGIC: [u8; 8] = *b"COSMOKG\0";

/// Errors from opening or writing a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION_V2`].
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Structural validation failed (truncation, bad enum tag, unsorted
    /// arrays, inconsistent offsets, non-UTF-8 arena, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a COSMO KG snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {FORMAT_VERSION_V2})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

pub(crate) fn kind_to_u8(k: NodeKind) -> u8 {
    match k {
        NodeKind::Product => 0,
        NodeKind::Query => 1,
        NodeKind::Intention => 2,
    }
}

pub(crate) fn kind_from_u8(b: u8) -> Option<NodeKind> {
    match b {
        0 => Some(NodeKind::Product),
        1 => Some(NodeKind::Query),
        2 => Some(NodeKind::Intention),
        _ => None,
    }
}

pub(crate) fn behavior_to_u8(b: BehaviorKind) -> u8 {
    match b {
        BehaviorKind::SearchBuy => 0,
        BehaviorKind::CoBuy => 1,
    }
}

pub(crate) fn behavior_from_u8(b: u8) -> Option<BehaviorKind> {
    match b {
        0 => Some(BehaviorKind::SearchBuy),
        1 => Some(BehaviorKind::CoBuy),
        _ => None,
    }
}

/// Format version tag for this layout.
pub const FORMAT_VERSION_V2: u32 = 2;
/// v2 header size: magic(8) version(4) reserved(4) n(8) m(8) arena(8)
/// checksum(8) total_len(8) reserved(8).
pub const HEADER_LEN_V2: usize = 64;
/// Sections in the table, in file order.
pub(crate) const SECTION_COUNT: usize = 8;
/// Every section begins on a 64-byte boundary.
const SECTION_ALIGN: usize = 64;
/// Byte offset of the section table (right after the header).
pub(crate) const TABLE_OFF: usize = HEADER_LEN_V2;
/// Byte offset of the first section: header + table, already 64-aligned.
pub(crate) const FIRST_SECTION_OFF: usize = TABLE_OFF + SECTION_COUNT * 16;

const SEC_KINDS: usize = 0;
const SEC_TEXT_OFFSETS: usize = 1;
const SEC_ARENA: usize = 2;
const SEC_EDGES: usize = 3;
const SEC_OUT_OFFSETS: usize = 4;
const SEC_IN_OFFSETS: usize = 5;
const SEC_IN_EDGES: usize = 6;
const SEC_LOOKUP: usize = 7;

/// On-disk edge record size — the in-memory `repr(C)` layout of [`Edge`].
pub(crate) const EDGE_SIZE: usize = std::mem::size_of::<Edge>();
/// On-disk lookup record size.
pub(crate) const LOOKUP_SIZE: usize = std::mem::size_of::<LookupRec>();

// The file format *is* the in-memory layout: pin it at compile time so an
// innocent field reorder cannot silently change the format.
const _: () = {
    assert!(std::mem::size_of::<Edge>() == 28);
    assert!(std::mem::align_of::<Edge>() == 4);
    assert!(std::mem::offset_of!(Edge, head) == 0);
    assert!(std::mem::offset_of!(Edge, relation) == 4);
    assert!(std::mem::offset_of!(Edge, tail) == 8);
    assert!(std::mem::offset_of!(Edge, behavior) == 12);
    assert!(std::mem::offset_of!(Edge, category) == 13);
    assert!(std::mem::offset_of!(Edge, plausibility) == 16);
    assert!(std::mem::offset_of!(Edge, typicality) == 20);
    assert!(std::mem::offset_of!(Edge, support) == 24);
    assert!(std::mem::size_of::<LookupRec>() == 16);
    assert!(std::mem::align_of::<LookupRec>() == 8);
    assert!(std::mem::offset_of!(LookupRec, hash) == 0);
    assert!(std::mem::offset_of!(LookupRec, id) == 8);
    assert!(std::mem::offset_of!(LookupRec, kind) == 12);
    assert!(FIRST_SECTION_OFF.is_multiple_of(SECTION_ALIGN));
};

/// How much of the snapshot to verify at load time (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Memory-safety-complete single-pass validation; skips the checksum
    /// and the cross-array consistency recomputation.
    Structural,
    /// Structural plus checksum and full cross-array verification.
    Full,
}

/// Round up to the next section boundary; `None` on overflow.
pub(crate) fn align_up(x: usize) -> Option<usize> {
    x.checked_add(SECTION_ALIGN - 1)
        .map(|v| v & !(SECTION_ALIGN - 1))
}

/// The eight expected section lengths for the given counts, checked.
pub(crate) fn section_lens(
    n: usize,
    m: usize,
    arena_len: usize,
) -> Result<[usize; 8], SnapshotError> {
    let overflow = || SnapshotError::Corrupt("section sizes overflow layout");
    let n1 = n.checked_add(1).ok_or_else(overflow)?;
    let off_bytes = n1.checked_mul(4).ok_or_else(overflow)?;
    Ok([
        n,
        off_bytes,
        arena_len,
        m.checked_mul(EDGE_SIZE).ok_or_else(overflow)?,
        off_bytes,
        off_bytes,
        m.checked_mul(4).ok_or_else(overflow)?,
        n.checked_mul(LOOKUP_SIZE).ok_or_else(overflow)?,
    ])
}

/// The frozen knowledge graph, served directly from borrowed bytes — a
/// memory-mapped file ([`KgSnapshotView::open`]) or the owned buffer
/// [`KnowledgeGraph::freeze`](crate::store::KnowledgeGraph::freeze)
/// encodes. Every accessor returns slices into those bytes; nothing is
/// materialised at load beyond the 8-entry section table. The serving
/// tier holds `Arc<KgSnapshotView>` so a hot-swap can atomically re-point
/// readers at a new file.
#[derive(Debug)]
pub struct KgSnapshotView {
    bytes: MappedBytes,
    n: usize,
    m: usize,
    arena_len: usize,
    /// Bitmask of relation discriminants present, gathered during the
    /// load-time edge tag scan (so `num_relations` stays O(1)).
    relations_mask: u16,
    /// `(offset, len)` per section, validated against the header counts.
    sec: [(usize, usize); SECTION_COUNT],
}

impl KgSnapshotView {
    /// Open a snapshot file with [`Verify::Structural`] — the
    /// O(pages touched) production path.
    pub fn open(path: &Path) -> Result<KgSnapshotView, SnapshotError> {
        Self::from_mapped(MappedBytes::open(path)?, Verify::Structural)
    }

    /// Open a snapshot file with [`Verify::Full`] — what a live server
    /// uses before publishing a new generation.
    pub fn open_verified(path: &Path) -> Result<KgSnapshotView, SnapshotError> {
        Self::from_mapped(MappedBytes::open(path)?, Verify::Full)
    }

    /// Validate an in-memory buffer (copied into an aligned owned
    /// backing).
    pub fn from_bytes(buf: Vec<u8>, verify: Verify) -> Result<KgSnapshotView, SnapshotError> {
        Self::from_mapped(MappedBytes::from_vec(buf), verify)
    }

    /// Validate already-opened bytes. See the module docs for what each
    /// [`Verify`] level checks.
    pub fn from_mapped(
        bytes: MappedBytes,
        verify: Verify,
    ) -> Result<KgSnapshotView, SnapshotError> {
        if cfg!(target_endian = "big") {
            return Err(SnapshotError::Corrupt(
                "v2 mapped snapshots require a little-endian host",
            ));
        }
        let buf: &[u8] = &bytes;
        // Magic and version come first, so a file of another version is
        // named as such whatever its length.
        if buf.len() < 12 {
            return Err(SnapshotError::Corrupt("buffer shorter than header"));
        }
        if buf[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap()); // PANIC: 4 bytes
        if version != FORMAT_VERSION_V2 {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if buf.len() < FIRST_SECTION_OFF {
            return Err(SnapshotError::Corrupt("buffer shorter than v2 header"));
        }
        if buf[12..16] != [0; 4] || buf[56..64] != [0; 8] {
            return Err(SnapshotError::Corrupt("reserved header bytes not zero"));
        }
        // PANIC: callers pass offsets inside the length-checked header
        let read_u64 = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let to_usize = |v: u64, what: &'static str| {
            usize::try_from(v).map_err(|_| SnapshotError::Corrupt(what))
        };
        let n = to_usize(read_u64(16), "node count overflows usize")?;
        let m = to_usize(read_u64(24), "edge count overflows usize")?;
        let arena_len = to_usize(read_u64(32), "arena length overflows usize")?;
        let checksum = read_u64(40);
        if read_u64(48) != buf.len() as u64 {
            return Err(SnapshotError::Corrupt("total length mismatch"));
        }
        // Ids on disk are u32 (NodeId / edge indices), so the counts must
        // fit; this also bounds every later index computation.
        if n > u32::MAX as usize || m > u32::MAX as usize || arena_len > u32::MAX as usize {
            return Err(SnapshotError::Corrupt("counts exceed u32 id space"));
        }

        // Section table: offsets are fully determined by the counts —
        // each section must start exactly where the previous one ends,
        // rounded up to the alignment boundary. Any drift is corruption.
        let lens = section_lens(n, m, arena_len)?;
        let mut sec = [(0usize, 0usize); SECTION_COUNT];
        let mut expect_off = FIRST_SECTION_OFF;
        let mut end = FIRST_SECTION_OFF;
        for (i, slot) in sec.iter_mut().enumerate() {
            let t = TABLE_OFF + i * 16;
            let off = to_usize(read_u64(t), "section offset overflows usize")?;
            let len = to_usize(read_u64(t + 8), "section length overflows usize")?;
            if off != expect_off {
                return Err(SnapshotError::Corrupt("section offset out of place"));
            }
            if len != lens[i] {
                return Err(SnapshotError::Corrupt("section length mismatch"));
            }
            end = off
                .checked_add(len)
                .ok_or(SnapshotError::Corrupt("section extends past address space"))?;
            if end > buf.len() {
                return Err(SnapshotError::Corrupt("section extends past buffer"));
            }
            expect_off =
                align_up(end).ok_or(SnapshotError::Corrupt("section padding overflows"))?;
            *slot = (off, len);
        }
        if end != buf.len() {
            return Err(SnapshotError::Corrupt("trailing bytes after last section"));
        }

        if verify == Verify::Full && hash_bytes(&buf[HEADER_LEN_V2..]) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let section = |i: usize| &buf[sec[i].0..sec[i].0 + sec[i].1];

        // kinds: every byte must be a valid NodeKind discriminant before
        // the &[NodeKind] cast is ever reachable.
        if section(SEC_KINDS)
            .iter()
            .any(|&b| kind_from_u8(b).is_none())
        {
            return Err(SnapshotError::Corrupt("bad node kind"));
        }

        let text_offsets: &[u32] = cast_slice(section(SEC_TEXT_OFFSETS))
            .ok_or(SnapshotError::Corrupt("text offsets misaligned"))?;
        if text_offsets[0] != 0 || text_offsets[n] as usize != arena_len {
            return Err(SnapshotError::Corrupt("text offsets do not span arena"));
        }
        if text_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotError::Corrupt("text offsets not monotone"));
        }
        let arena = std::str::from_utf8(section(SEC_ARENA))
            .map_err(|_| SnapshotError::Corrupt("arena is not UTF-8"))?;
        if !text_offsets
            .iter()
            .all(|&o| arena.is_char_boundary(o as usize))
        {
            return Err(SnapshotError::Corrupt("text offset splits a UTF-8 char"));
        }

        // Edges: one raw pass checks both enum tags (cast safety), both
        // endpoints (bounds safety) and the strict sort order (lookup
        // determinism) before the &[Edge] cast.
        let mut relations_mask = 0u16;
        let mut prev_key: Option<(u32, u8, u32)> = None;
        for rec in section(SEC_EDGES).chunks_exact(EDGE_SIZE) {
            let rel = rec[4];
            if rel as usize >= Relation::ALL.len() {
                return Err(SnapshotError::Corrupt("bad relation tag"));
            }
            if rec[12] >= 2 {
                return Err(SnapshotError::Corrupt("bad behavior tag"));
            }
            let head = u32::from_le_bytes(rec[0..4].try_into().unwrap()); // PANIC: 4 bytes
            let tail = u32::from_le_bytes(rec[8..12].try_into().unwrap()); // PANIC: 4 bytes
            if head as usize >= n || tail as usize >= n {
                return Err(SnapshotError::Corrupt("edge endpoint out of range"));
            }
            let key = (head, rel, tail);
            if prev_key.is_some_and(|p| p >= key) {
                return Err(SnapshotError::Corrupt("edges not strictly sorted"));
            }
            prev_key = Some(key);
            relations_mask |= 1 << rel;
        }

        let out_offsets: &[u32] = cast_slice(section(SEC_OUT_OFFSETS))
            .ok_or(SnapshotError::Corrupt("out offsets misaligned"))?;
        let in_offsets: &[u32] = cast_slice(section(SEC_IN_OFFSETS))
            .ok_or(SnapshotError::Corrupt("in offsets misaligned"))?;
        for (offsets, what) in [
            (out_offsets, "out offsets inconsistent"),
            (in_offsets, "in offsets inconsistent"),
        ] {
            if offsets[0] != 0
                || offsets[n] as usize != m
                || offsets.windows(2).any(|w| w[0] > w[1])
            {
                return Err(SnapshotError::Corrupt(what));
            }
        }
        let in_edges: &[u32] = cast_slice(section(SEC_IN_EDGES))
            .ok_or(SnapshotError::Corrupt("in edges misaligned"))?;
        if in_edges.iter().any(|&i| i as usize >= m) {
            return Err(SnapshotError::Corrupt("in-edge index out of range"));
        }

        let lookup: &[LookupRec] =
            cast_slice(section(SEC_LOOKUP)).ok_or(SnapshotError::Corrupt("lookup misaligned"))?;
        let mut prev: Option<(u8, u64, u32)> = None;
        for r in lookup {
            if r.id as usize >= n {
                return Err(SnapshotError::Corrupt("lookup id out of range"));
            }
            let key = (r.kind, r.hash, r.id);
            if prev.is_some_and(|p| p >= key) {
                return Err(SnapshotError::Corrupt("lookup not sorted"));
            }
            prev = Some(key);
        }

        if verify == Verify::Full {
            // Cross-array consistency: recompute both prefix arrays,
            // re-derive the in-edge grouping, and re-hash every node text
            // against its lookup record.
            let edges: &[Edge] =
                cast_slice(section(SEC_EDGES)).ok_or(SnapshotError::Corrupt("edges misaligned"))?;
            let recompute = |key: fn(&Edge) -> u32| {
                let mut offsets = vec![0u32; n + 1];
                for e in edges {
                    offsets[key(e) as usize + 1] += 1;
                }
                for i in 0..n {
                    offsets[i + 1] += offsets[i];
                }
                offsets
            };
            if out_offsets != recompute(|e| e.head.0) {
                return Err(SnapshotError::Corrupt(
                    "out offsets inconsistent with edges",
                ));
            }
            if in_offsets != recompute(|e| e.tail.0) {
                return Err(SnapshotError::Corrupt("in offsets inconsistent with edges"));
            }
            let mut prev: Option<(u32, u32)> = None;
            for (j, &idx) in in_edges.iter().enumerate() {
                let tail = edges[idx as usize].tail.0;
                let s = in_offsets[tail as usize] as usize;
                let e = in_offsets[tail as usize + 1] as usize;
                if j < s || j >= e {
                    return Err(SnapshotError::Corrupt("in-edge in wrong tail group"));
                }
                if prev.is_some_and(|p| p >= (tail, idx)) {
                    return Err(SnapshotError::Corrupt("in-edges not sorted"));
                }
                prev = Some((tail, idx));
            }
            let mut seen = vec![false; n];
            for r in lookup {
                let i = r.id as usize;
                if seen[i] {
                    return Err(SnapshotError::Corrupt("lookup id duplicated"));
                }
                seen[i] = true;
                let s = text_offsets[i] as usize;
                let e = text_offsets[i + 1] as usize;
                if r.kind != section(SEC_KINDS)[i] || r.hash != hash_bytes(&arena.as_bytes()[s..e])
                {
                    return Err(SnapshotError::Corrupt("lookup record does not match node"));
                }
            }
        }

        Ok(KgSnapshotView {
            bytes,
            n,
            m,
            arena_len,
            relations_mask,
            sec,
        })
    }

    fn section(&self, i: usize) -> &[u8] {
        &self.bytes[self.sec[i].0..self.sec[i].0 + self.sec[i].1]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Number of distinct relation types present (O(1): gathered during
    /// the load-time tag scan).
    pub fn num_relations(&self) -> usize {
        self.relations_mask.count_ones() as usize
    }

    /// Total bytes of node text in the arena.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// True when the backing bytes are an OS memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// The full serialised file.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn kinds(&self) -> &[NodeKind] {
        // PANIC: section alignment and size were validated at load
        cast_slice(self.section(SEC_KINDS)).expect("validated at load")
    }

    fn text_offsets(&self) -> &[u32] {
        // PANIC: validated at load, as above
        cast_slice(self.section(SEC_TEXT_OFFSETS)).expect("validated at load")
    }

    fn arena_str(&self) -> &str {
        str_from_validated(self.section(SEC_ARENA))
    }

    /// All edges, sorted by `(head, relation, tail)` — borrowed straight
    /// from the file bytes.
    pub fn edges(&self) -> &[Edge] {
        // PANIC: validated at load, as above
        cast_slice(self.section(SEC_EDGES)).expect("validated at load")
    }

    fn out_offsets(&self) -> &[u32] {
        // PANIC: validated at load, as above
        cast_slice(self.section(SEC_OUT_OFFSETS)).expect("validated at load")
    }

    fn in_offsets(&self) -> &[u32] {
        // PANIC: validated at load, as above
        cast_slice(self.section(SEC_IN_OFFSETS)).expect("validated at load")
    }

    fn in_edges(&self) -> &[u32] {
        // PANIC: validated at load, as above
        cast_slice(self.section(SEC_IN_EDGES)).expect("validated at load")
    }

    fn lookup(&self) -> &[LookupRec] {
        // PANIC: validated at load, as above
        cast_slice(self.section(SEC_LOOKUP)).expect("validated at load")
    }

    /// Kind of a node.
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.kinds()[id.0 as usize]
    }

    /// Text of a node (borrowed from the arena).
    pub fn node_text(&self, id: NodeId) -> &str {
        let offsets = self.text_offsets();
        let s = offsets[id.0 as usize] as usize;
        let e = offsets[id.0 as usize + 1] as usize;
        &self.arena_str()[s..e]
    }

    /// Binary-searched node lookup; hash collisions are resolved by
    /// comparing the actual text.
    pub fn find_node(&self, kind: NodeKind, text: &str) -> Option<NodeId> {
        let key = (kind_to_u8(kind), hash_bytes(text.as_bytes()));
        let lookup = self.lookup();
        let start = lookup.partition_point(|r| (r.kind, r.hash) < key);
        lookup[start..]
            .iter()
            .take_while(|r| (r.kind, r.hash) == key)
            .map(|r| NodeId(r.id))
            .find(|&id| self.node_text(id) == text)
    }

    /// Out-edges of `head` as one contiguous borrowed slice, sorted by
    /// `(relation, tail)`.
    pub fn out_slice(&self, head: NodeId) -> &[Edge] {
        let offsets = self.out_offsets();
        let s = offsets[head.0 as usize] as usize;
        let e = offsets[head.0 as usize + 1] as usize;
        &self.edges()[s..e]
    }

    /// Out-edges of `head` restricted to `relation`, found by
    /// binary-searching the relation run inside [`Self::out_slice`].
    pub fn tails_of_rel_slice(&self, head: NodeId, relation: Relation) -> &[Edge] {
        let out = self.out_slice(head);
        let r = relation.index();
        let lo = out.partition_point(|e| e.relation.index() < r);
        let hi = lo + out[lo..].partition_point(|e| e.relation.index() == r);
        &out[lo..hi]
    }

    /// Indices (into [`Self::edges`]) of the in-edges of `tail`.
    pub fn in_slice(&self, tail: NodeId) -> &[u32] {
        let offsets = self.in_offsets();
        let s = offsets[tail.0 as usize] as usize;
        let e = offsets[tail.0 as usize + 1] as usize;
        &self.in_edges()[s..e]
    }
}

impl GraphView for KgSnapshotView {
    fn num_nodes(&self) -> usize {
        KgSnapshotView::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        KgSnapshotView::num_edges(self)
    }

    fn find_node(&self, kind: NodeKind, text: &str) -> Option<NodeId> {
        KgSnapshotView::find_node(self, kind, text)
    }

    fn node_kind(&self, id: NodeId) -> NodeKind {
        KgSnapshotView::node_kind(self, id)
    }

    fn node_text(&self, id: NodeId) -> &str {
        KgSnapshotView::node_text(self, id)
    }

    fn out_degree(&self, id: NodeId) -> usize {
        self.out_slice(id).len()
    }

    fn in_degree(&self, id: NodeId) -> usize {
        self.in_slice(id).len()
    }

    fn tails_of(&self, head: NodeId) -> impl Iterator<Item = &Edge> {
        self.out_slice(head).iter()
    }

    fn tails_of_rel(&self, head: NodeId, relation: Relation) -> impl Iterator<Item = &Edge> {
        self.tails_of_rel_slice(head, relation).iter()
    }

    fn heads_of(&self, tail: NodeId) -> impl Iterator<Item = &Edge> {
        self.in_slice(tail)
            .iter()
            .map(|&i| &self.edges()[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KnowledgeGraph;

    fn build_graph(heads: usize, tails_per_head: usize) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for h in 0..heads {
            let kind = if h % 2 == 0 {
                NodeKind::Query
            } else {
                NodeKind::Product
            };
            let head = kg.intern_node(kind, &format!("head {h}"));
            for t in 0..tails_per_head {
                // Share tails across heads so in-degrees exceed one.
                let tail = kg.intern_node(
                    NodeKind::Intention,
                    &format!("intent {}", (h + t) % (heads / 2 + 1)),
                );
                let relation = Relation::ALL[(h * 7 + t * 3) % Relation::ALL.len()];
                kg.add_edge(Edge {
                    head,
                    relation,
                    tail,
                    behavior: if t % 2 == 0 {
                        BehaviorKind::SearchBuy
                    } else {
                        BehaviorKind::CoBuy
                    },
                    category: (t % 18) as u8,
                    plausibility: 0.5 + 0.4 * (h as f32 / heads.max(1) as f32),
                    typicality: 0.1 + 0.05 * (t as f32),
                    support: 1 + (h % 3) as u32,
                });
            }
        }
        kg
    }

    #[test]
    fn enum_discriminants_match_wire_codes() {
        // repr(u8) pins these; the byte codecs and the raw tag scans rely
        // on the discriminants being the on-disk codes.
        assert_eq!(NodeKind::Product as u8, 0);
        assert_eq!(NodeKind::Query as u8, 1);
        assert_eq!(NodeKind::Intention as u8, 2);
        assert_eq!(BehaviorKind::SearchBuy as u8, 0);
        assert_eq!(BehaviorKind::CoBuy as u8, 1);
        for (i, r) in Relation::ALL.iter().enumerate() {
            assert_eq!(*r as u8 as usize, i);
        }
    }

    #[test]
    fn freeze_roundtrips_under_full_verify() {
        let kg = build_graph(20, 6);
        let snap = kg.freeze();
        let bytes = snap.as_bytes().to_vec();
        assert_eq!(bytes[..8], MAGIC);
        let reopened = KgSnapshotView::from_bytes(bytes.clone(), Verify::Full).unwrap();
        assert_eq!(reopened.as_bytes(), &bytes[..]);
        assert_eq!(kg.freeze().as_bytes(), &bytes[..], "freeze is byte-stable");
        assert_eq!(reopened.num_relations(), kg.num_relations());
        assert!(!snap.is_mapped());
    }

    /// The frozen view against the mutable store's own `GraphView` — an
    /// independent implementation — on every node and every query.
    #[test]
    fn frozen_answers_match_store_bitwise() {
        let kg = build_graph(30, 8);
        let snap = kg.freeze();
        assert_eq!(GraphView::num_nodes(&snap), GraphView::num_nodes(&kg));
        assert_eq!(GraphView::num_edges(&snap), GraphView::num_edges(&kg));
        for i in 0..kg.num_nodes() {
            let id = NodeId(i as u32);
            let (kind, text) = (kg.node_kind(id), kg.node_text(id));
            assert_eq!(GraphView::node_kind(&snap, id), kind);
            assert_eq!(GraphView::node_text(&snap, id), text);
            assert_eq!(GraphView::find_node(&snap, kind, text), Some(id));
            assert_eq!(
                GraphView::out_degree(&snap, id),
                GraphView::out_degree(&kg, id)
            );
            assert_eq!(
                GraphView::in_degree(&snap, id),
                GraphView::in_degree(&kg, id)
            );
            let out: Vec<&Edge> = GraphView::tails_of(&snap, id).collect();
            assert_eq!(out, GraphView::tails_of(&kg, id).collect::<Vec<_>>());
            let inc: Vec<&Edge> = GraphView::heads_of(&snap, id).collect();
            assert_eq!(inc, GraphView::heads_of(&kg, id).collect::<Vec<_>>());
            for rel in Relation::ALL {
                let a: Vec<&Edge> = GraphView::tails_of_rel(&snap, id, rel).collect();
                let b: Vec<&Edge> = GraphView::tails_of_rel(&kg, id, rel).collect();
                assert_eq!(a, b, "rel {rel:?} of node {i}");
            }
            for k in [1, 5, 100] {
                assert_eq!(
                    GraphView::top_intents(&snap, id, k),
                    GraphView::top_intents(&kg, id, k),
                    "top_intents({i}, {k})"
                );
            }
        }
        assert_eq!(snap.find_node(NodeKind::Query, "no such node"), None);
        // right text, wrong kind
        assert_eq!(snap.find_node(NodeKind::Product, "head 0"), None);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let snap = KnowledgeGraph::new().freeze();
        assert_eq!(snap.num_nodes(), 0);
        assert_eq!(snap.num_edges(), 0);
        let reopened = KgSnapshotView::from_bytes(snap.as_bytes().to_vec(), Verify::Full).unwrap();
        assert_eq!(reopened.as_bytes(), snap.as_bytes());
    }

    #[test]
    fn open_reads_a_frozen_file_at_both_levels() {
        let kg = build_graph(10, 4);
        let snap = kg.freeze();
        let path = std::env::temp_dir().join(format!("cosmo_snap_open_{}.kg2", std::process::id()));
        std::fs::write(&path, snap.as_bytes()).unwrap();
        let opened = KgSnapshotView::open(&path).unwrap();
        let verified = KgSnapshotView::open_verified(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(opened.as_bytes(), snap.as_bytes());
        assert_eq!(verified.as_bytes(), snap.as_bytes());

        let missing = Path::new("/nonexistent/cosmo.snapshot");
        let err = KgSnapshotView::open(missing).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(!err.to_string().is_empty());
    }

    /// A file in the retired version-1 layout: magic, version 1, counts,
    /// arena length and checksum, then its payload.
    fn v1_file(payload_len: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 4 + 4 + 8 + 8]);
        bytes.resize(bytes.len() + payload_len, 0x5a);
        bytes
    }

    #[test]
    fn version_one_files_are_a_typed_rejection() {
        // an empty v1 graph is shorter than the v2 header; a larger one
        // is not — both must be named by their version
        for payload in [0, 4096] {
            let bytes = v1_file(payload);
            for verify in [Verify::Structural, Verify::Full] {
                assert!(matches!(
                    KgSnapshotView::from_bytes(bytes.clone(), verify),
                    Err(SnapshotError::UnsupportedVersion(1))
                ));
            }
            let path = std::env::temp_dir().join(format!(
                "cosmo_snap_v1_{payload}_{}.snap",
                std::process::id()
            ));
            std::fs::write(&path, &bytes).unwrap();
            let opened = KgSnapshotView::open(&path);
            let verified = KgSnapshotView::open_verified(&path);
            std::fs::remove_file(&path).ok();
            assert!(matches!(opened, Err(SnapshotError::UnsupportedVersion(1))));
            assert!(matches!(
                verified,
                Err(SnapshotError::UnsupportedVersion(1))
            ));
        }
    }

    #[test]
    fn crafted_header_overflows_are_clean_errors() {
        // section lengths computed from near-u64::MAX counts must not
        // panic or wrap.
        let snap = KnowledgeGraph::new().freeze();
        let mut bytes = snap.as_bytes().to_vec();
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes()); // arena_len
        assert!(matches!(
            KgSnapshotView::from_bytes(bytes, Verify::Full),
            Err(SnapshotError::Corrupt(_))
        ));

        let mut bytes = snap.as_bytes().to_vec();
        bytes[16..24].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // n
        assert!(matches!(
            KgSnapshotView::from_bytes(bytes, Verify::Full),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn header_corruption_is_detected() {
        let good = build_graph(8, 4).freeze().as_bytes().to_vec();
        assert!(matches!(
            KgSnapshotView::from_bytes(good[..11].to_vec(), Verify::Full),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            KgSnapshotView::from_bytes(bad, Verify::Full),
            Err(SnapshotError::BadMagic)
        ));
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            KgSnapshotView::from_bytes(bad, Verify::Full),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
        // the checksum covers everything after the header
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            KgSnapshotView::from_bytes(bad, Verify::Full),
            Err(SnapshotError::ChecksumMismatch)
        ));
    }

    #[test]
    fn structural_verify_rejects_bad_tags_and_bounds() {
        let good = build_graph(6, 3).freeze().as_bytes().to_vec();
        let edges_off = {
            let t = TABLE_OFF + SEC_EDGES * 16;
            u64::from_le_bytes(good[t..t + 8].try_into().unwrap()) as usize
        };

        let mut bad = good.clone();
        bad[edges_off + 4] = 200; // relation tag
        assert!(matches!(
            KgSnapshotView::from_bytes(bad, Verify::Structural),
            Err(SnapshotError::Corrupt("bad relation tag"))
        ));

        let mut bad = good.clone();
        bad[edges_off + 12] = 9; // behavior tag
        assert!(matches!(
            KgSnapshotView::from_bytes(bad, Verify::Structural),
            Err(SnapshotError::Corrupt("bad behavior tag"))
        ));

        let mut bad = good.clone();
        bad[edges_off..edges_off + 4].copy_from_slice(&u32::MAX.to_le_bytes()); // head
        assert!(matches!(
            KgSnapshotView::from_bytes(bad, Verify::Structural),
            Err(SnapshotError::Corrupt(_))
        ));

        let kinds_off = {
            let t = TABLE_OFF + SEC_KINDS * 16;
            u64::from_le_bytes(good[t..t + 8].try_into().unwrap()) as usize
        };
        let mut bad = good.clone();
        bad[kinds_off] = 7;
        assert!(matches!(
            KgSnapshotView::from_bytes(bad, Verify::Structural),
            Err(SnapshotError::Corrupt("bad node kind"))
        ));
    }
}
