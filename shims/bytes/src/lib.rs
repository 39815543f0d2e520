//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is an `Arc<[u8]>` plus a window, so clones and
//! [`Bytes::slice`] are O(1) and allocation-free — the property the
//! wire format relies on when response chunks share one buffer.
//! [`BytesMut`] is a growable buffer that freezes into [`Bytes`].
//! The [`Buf`]/[`BufMut`] traits carry exactly the accessor set the
//! workspace's encoders use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer over a static slice (copied once; the real crate
    /// borrows, but callers only rely on the value semantics).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes remaining in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-window. `range` is relative to `self`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end: len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Splits off everything written so far, leaving `self` empty but
    /// holding equivalent capacity — the scratch-buffer reuse pattern
    /// encode loops rely on to avoid re-growing per frame.
    pub fn split(&mut self) -> BytesMut {
        let mut written = Vec::with_capacity(self.data.capacity());
        std::mem::swap(&mut self.data, &mut written);
        BytesMut { data: written }
    }

    /// Drops the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Grows (filling with `value`) or shrinks the buffer to
    /// `new_len` bytes — with `DerefMut`, how an encoder sizes a run
    /// once and then writes whole words into it.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { data: v.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::from(self.data.clone()), f)
    }
}

/// Read access to a byte cursor.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes. Panics when out of range.
    fn advance(&mut self, cnt: usize);

    /// True when at least one byte is left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte. Panics when exhausted (callers bound-check via
    /// `remaining`, matching the real crate's contract).
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a little-endian `i32`.
    fn get_i32_le(&mut self) -> i32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        i32::from_le_bytes(raw)
    }

    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        i64::from_le_bytes(raw)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    /// Copies the next `len` bytes out as an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = Bytes::from(self.chunk()[..len].to_vec());
        self.advance(len);
        out
    }

    /// Fills `dst` from the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(0..len);
        self.advance(len);
        out
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Append access to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `i32`.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_i32_le(-5);
        w.put_i64_le(1 << 40);
        w.put_f64_le(2.5);
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_i32_le(), -5);
        assert_eq!(r.get_i64_le(), 1 << 40);
        assert_eq!(r.get_f64_le(), 2.5);
        assert!(!r.has_remaining());
    }

    #[test]
    fn resize_then_write_in_place() {
        let mut w = BytesMut::from(&[1u8, 2][..]);
        w.resize(6, 0);
        w[2..6].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(&w[..], &[1, 2, 7, 0, 0, 0]);
        w.resize(1, 0);
        assert_eq!(w.freeze(), Bytes::from(vec![1]));
    }

    #[test]
    fn slices_share_storage_and_window() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[1, 2, 3]);
        assert_eq!(&s.slice(1..)[..], &[2, 3]);
        let mut c = s.clone();
        assert_eq!(c.copy_to_bytes(2), Bytes::from(vec![1, 2]));
        assert_eq!(c.remaining(), 1);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        b.advance(2);
    }
}
