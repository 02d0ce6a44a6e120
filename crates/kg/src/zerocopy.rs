//! The one `unsafe` seam in cosmo-kg: reinterpreting *validated* snapshot
//! bytes as typed slices.
//!
//! Every cast in this module is a plain pointer reinterpretation — no
//! copies, no allocation — which is what makes the v2 mapped snapshot
//! O(pages touched) to open. Safety rests on two layers:
//!
//! 1. **Mechanical checks here**: alignment and length-divisibility are
//!    verified on every call; a misaligned or ragged buffer returns
//!    `None` instead of casting.
//! 2. **Semantic validation at load time** (`crate::snapshot`): for
//!    types with invalid bit patterns (`Edge`'s enums, the arena's UTF-8)
//!    the decoder scans the raw bytes *before* the first typed access and
//!    refuses the snapshot otherwise. The `Pod` impls below document the
//!    exact invariant each type relies on.
//!
//! Everything else in cosmo-kg remains `unsafe`-free; the workspace audit
//! (`cosmo-audit` lint A02) pins `unsafe` to this file.

use crate::schema::NodeKind;
use crate::store::Edge;

/// Marker for types that may be viewed over snapshot bytes.
///
/// # Safety
/// Implementors must be `repr(C)`/`repr(transparent)`/primitive with a
/// stable layout, contain no pointers, and — when the type has invalid
/// bit patterns (field-less enums) — may only be cast over buffers whose
/// enum bytes were validated beforehand, as `snapshot` does during
/// its load-time scans.
// SAFETY: implementors uphold the contract in the doc comment above.
pub(crate) unsafe trait Pod: Sized {}

// SAFETY: primitives — every bit pattern is valid.
unsafe impl Pod for u8 {}
// SAFETY: primitives — every bit pattern is valid (LE byte order is part
// of the on-disk contract, checked by the format's layout tests).
unsafe impl Pod for u32 {}
// SAFETY: primitives — every bit pattern is valid.
unsafe impl Pod for u64 {}
// SAFETY: repr(u8) with discriminants 0..3; the v2 decoder scans the
// kinds section and rejects any byte >= 3 before this cast is reachable.
unsafe impl Pod for NodeKind {}
// SAFETY: repr(C) (28 bytes, align 4); its enum fields are repr(u8) with
// discriminants 0..15 (Relation) and 0..2 (BehaviorKind), and the v2
// decoder scans both tag bytes of every record before the cast. Padding
// bytes are never read through the typed view.
unsafe impl Pod for Edge {}

/// Compile-time layout pins for [`LookupRec`] (see `snapshot`).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LookupRec {
    /// FxHash of the node text.
    pub hash: u64,
    /// Node id (validated `< n` at load).
    pub id: u32,
    /// Node kind byte (as [`crate::snapshot::kind_to_u8`]).
    pub kind: u8,
    /// Explicit padding, always written as zero.
    pub pad: [u8; 3],
}

// SAFETY: repr(C) of u64/u32/u8/[u8;3] — 16 bytes, align 8, every bit
// pattern valid (kind is a raw byte here, not the NodeKind enum).
unsafe impl Pod for LookupRec {}

/// View `bytes` as `&[T]`. Returns `None` when the base pointer is not
/// aligned for `T` or the length is not a whole number of records — the
/// decoder maps that to a corrupt-snapshot error.
pub(crate) fn cast_slice<T: Pod>(bytes: &[u8]) -> Option<&[T]> {
    let size = std::mem::size_of::<T>();
    if size == 0 || !bytes.len().is_multiple_of(size) {
        return None;
    }
    let ptr = bytes.as_ptr();
    if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return None;
    }
    // SAFETY: ptr is aligned for T and the region holds exactly
    // len/size T-sized records; T: Pod guarantees (with the load-time
    // tag scans documented on each impl) that those bytes are valid T
    // values, and the borrow ties the result to `bytes`' lifetime.
    Some(unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), bytes.len() / size) })
}

/// View UTF-8-validated arena bytes as `&str` without re-validating.
///
/// The caller must have run `std::str::from_utf8` over the *whole* arena
/// at load time (as `snapshot` does); per-access re-validation is what
/// this path exists to avoid. Debug builds re-check.
pub(crate) fn str_from_validated(bytes: &[u8]) -> &str {
    debug_assert!(std::str::from_utf8(bytes).is_ok());
    // SAFETY: the v2 decoder validates the full arena as UTF-8 (and every
    // text offset as a char boundary) before constructing the view, so
    // any slice taken at those offsets is valid UTF-8.
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_slice_roundtrips_u32() {
        let values: Vec<u32> = (0..16).map(|i| i * 0x01010101).collect();
        let mut bytes = Vec::new();
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        // Vec<u8> may be under-aligned for u32; go through an aligned buffer.
        let mut aligned = vec![0u64; bytes.len().div_ceil(8)];
        let dst = aligned.as_mut_ptr().cast::<u8>();
        // SAFETY: test-only copy into the aligned backing store.
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len()) };
        // SAFETY: same region, shared borrow for the duration of the test.
        let view = unsafe { std::slice::from_raw_parts(dst, bytes.len()) };
        assert_eq!(cast_slice::<u32>(view), Some(&values[..]));
    }

    #[test]
    fn ragged_length_is_rejected() {
        let aligned = [0u64; 2];
        // SAFETY: in-bounds sub-view of a live array.
        let view = unsafe { std::slice::from_raw_parts(aligned.as_ptr().cast::<u8>(), 7) };
        assert_eq!(cast_slice::<u32>(view), None);
    }

    #[test]
    fn misaligned_base_is_rejected() {
        let aligned = [0u64; 2];
        // SAFETY: in-bounds sub-view of a live array, deliberately offset.
        let view = unsafe { std::slice::from_raw_parts(aligned.as_ptr().cast::<u8>().add(1), 8) };
        assert_eq!(cast_slice::<u32>(view), None);
    }

    #[test]
    fn validated_str_matches() {
        assert_eq!(str_from_validated("caméra".as_bytes()), "caméra");
    }
}
