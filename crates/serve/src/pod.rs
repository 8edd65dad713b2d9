//! Plain-old-data reinterpretation for the zero-copy artifact loader.
//!
//! Format v2 artifacts keep their float section as raw little-endian
//! `f32` bytes at an 8-aligned payload offset, so on little-endian
//! targets the loader can serve straight out of the artifact buffer
//! instead of materializing a `Vec<f32>`. This module owns the two
//! pieces that make that sound:
//!
//! * [`AlignedBytes`] — an immutable byte buffer backed by `Vec<u64>`,
//!   so its first byte is always 8-aligned and any section the format
//!   places at an 8-aligned offset stays aligned for `f32` views;
//! * [`f32s`] — the *checked* cast from bytes to `&[f32]`, which
//!   returns `None` (instead of a misaligned or byte-swapped view) on
//!   any target or offset where the reinterpretation would be wrong.
//!
//! Construction and access share the single [`f32s`] gate: the loader
//! only builds a borrowed float view when the cast succeeds, and falls
//! back to an owned decode otherwise, so big-endian targets stay
//! correct (just not zero-copy).
//!
//! With `lanes`, one of the two modules in the crate allowed to use
//! `unsafe`; the crate root is `#![deny(unsafe_code)]`.
#![allow(unsafe_code)]

/// An immutable byte buffer whose storage is 8-aligned.
///
/// Holds one copied image of a serialized artifact; the v2 loader keeps
/// it behind an `Arc` and hands out borrowed float/code views into it.
pub(crate) struct AlignedBytes {
    /// Backing words; byte `i` of the buffer is byte `i` of this
    /// allocation (the copy below preserves the byte image exactly,
    /// independent of target endianness).
    words: Vec<u64>,
    /// Logical length in bytes (the tail of the last word is zeroed
    /// padding, never exposed).
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh 8-aligned buffer (one `memcpy`-shaped
    /// pass; the only copy the v2 loader performs).
    pub(crate) fn copy_from(bytes: &[u8]) -> AlignedBytes {
        let mut words = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // `from_ne_bytes` keeps the in-memory byte image identical
            // to the source on every endianness.
            words.push(u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            words.push(u64::from_ne_bytes(last));
        }
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }

    /// The buffer contents. The returned slice's first byte is 8-aligned.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `words` owns at least `len` initialized bytes
        // (`copy_from` allocates `ceil(len / 8)` words), `u64` has no
        // padding and alignment 8 >= 1, and the borrow of `self` keeps
        // the allocation alive for the slice's lifetime.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// Logical length in bytes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len)
            .finish()
    }
}

/// Reinterprets `bytes` as a slice of `f32`s when — and only when —
/// that view is exactly the decoded values: the length must be a whole
/// number of 4-byte lanes, the pointer 4-aligned, and the target
/// little-endian (the wire format stores little-endian `f32`s, so on a
/// big-endian target a reinterpreted view would be byte-swapped).
///
/// Returns `None` otherwise; callers fall back to an owned decode, so
/// this single gate keeps construction and access in agreement.
pub(crate) fn f32s(bytes: &[u8]) -> Option<&[f32]> {
    if cfg!(target_endian = "big")
        || !bytes.len().is_multiple_of(4)
        || !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f32>())
    {
        return None;
    }
    // SAFETY: length and alignment are checked above, `f32` accepts any
    // bit pattern, and the output borrows `bytes` so the backing memory
    // outlives the view. Endianness is checked above, so the
    // reinterpreted lanes equal `f32::from_le_bytes` of each 4-byte
    // group.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bytes_round_trip_any_length() {
        for len in 0..33usize {
            let src: Vec<u8> = (0..len as u8)
                .map(|b| b.wrapping_mul(37).wrapping_add(3))
                .collect();
            let buf = AlignedBytes::copy_from(&src);
            assert_eq!(buf.bytes(), &src[..]);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.bytes().as_ptr() as usize % 8, 0);
        }
    }

    #[test]
    fn f32_view_matches_le_decode() {
        let values = [0.0f32, -1.5, 3.25e7, f32::MIN_POSITIVE];
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let buf = AlignedBytes::copy_from(&bytes);
        if cfg!(target_endian = "little") {
            let view = f32s(buf.bytes()).expect("aligned LE view");
            assert_eq!(view, &values[..]);
        } else {
            assert!(f32s(buf.bytes()).is_none());
        }
    }

    #[test]
    fn f32_view_rejects_misalignment_and_ragged_lengths() {
        let buf = AlignedBytes::copy_from(&[0u8; 16]);
        assert!(f32s(&buf.bytes()[1..13]).is_none()); // misaligned start
        assert!(f32s(&buf.bytes()[..10]).is_none()); // not a lane multiple
    }
}
