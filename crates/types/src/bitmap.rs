//! A packed validity bitmap.
//!
//! Arrays pair their values buffer with a `Bitmap` marking which slots
//! are valid (non-NULL). The bitmap is bit-packed (LSB-first within
//! each byte) to keep the simulated wire representation honest about
//! null overhead.

/// A growable, bit-packed bitmap. Bit `i` set means slot `i` is valid.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    bits: Vec<u8>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// A bitmap of `len` slots, all set to `value`.
    pub fn from_element(len: usize, value: bool) -> Self {
        let fill = if value { 0xFF } else { 0x00 };
        let mut bm = Bitmap {
            bits: vec![fill; len.div_ceil(8)],
            len,
        };
        if value {
            bm.mask_tail();
        }
        bm
    }

    /// Builds from a bool slice.
    pub fn from_bools(values: &[bool]) -> Self {
        let mut bm = Bitmap::with_capacity(values.len());
        for &v in values {
            bm.push(v);
        }
        bm
    }

    /// An empty bitmap with room for `cap` slots.
    pub fn with_capacity(cap: usize) -> Self {
        Bitmap {
            bits: Vec::with_capacity(cap.div_ceil(8)),
            len: 0,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one slot.
    pub fn push(&mut self, value: bool) {
        let byte = self.len / 8;
        if byte == self.bits.len() {
            self.bits.push(0);
        }
        if value {
            self.bits[byte] |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// Reads slot `i`. Panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bitmap index {i} out of bounds (len {})",
            self.len
        );
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Sets slot `i` to `value`. Panics when out of bounds.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bitmap index {i} out of bounds (len {})",
            self.len
        );
        if value {
            self.bits[i / 8] |= 1 << (i % 8);
        } else {
            self.bits[i / 8] &= !(1 << (i % 8));
        }
    }

    /// Number of set (valid) slots, using per-byte popcount.
    pub fn count_set(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when every slot is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// True when no slot is set.
    pub fn none_set(&self) -> bool {
        self.count_set() == 0
    }

    /// Iterator over slot values.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices of set slots.
    pub fn set_indices(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.get(i)).collect()
    }

    /// Returns the slice `[offset, offset+len)` as a new bitmap.
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(offset + len <= self.len, "slice out of bounds");
        if offset.is_multiple_of(8) {
            // Byte-aligned start: copy whole bytes, mask the tail.
            let bytes = self.bits[offset / 8..(offset + len).div_ceil(8)].to_vec();
            let mut out = Bitmap { bits: bytes, len };
            out.mask_tail();
            return out;
        }
        let mut out = Bitmap::with_capacity(len);
        for i in offset..offset + len {
            out.push(self.get(i));
        }
        out
    }

    /// Appends all slots of `other`.
    pub fn extend_from(&mut self, other: &Bitmap) {
        if self.len.is_multiple_of(8) {
            // Byte-aligned end: `other`'s packed bytes (tail already
            // masked) append as they are.
            self.bits.extend_from_slice(&other.bits);
            self.len += other.len;
            return;
        }
        for v in other.iter() {
            self.push(v);
        }
    }

    /// Appends `len` slots read LSB-first from packed `bytes` (which
    /// must hold at least `len.div_ceil(8)` of them); bits past `len`
    /// are ignored.
    pub fn extend_from_packed(&mut self, bytes: &[u8], len: usize) {
        let bytes = &bytes[..len.div_ceil(8)];
        let shift = self.len % 8;
        if shift == 0 {
            self.bits.extend_from_slice(bytes);
        } else {
            for &b in bytes {
                if let Some(last) = self.bits.last_mut() {
                    *last |= b << shift;
                }
                self.bits.push(b >> (8 - shift));
            }
        }
        self.len += len;
        self.bits.truncate(self.len.div_ceil(8));
        self.mask_tail();
    }

    /// Appends `n` slots, all `value`.
    pub fn extend_constant(&mut self, n: usize, value: bool) {
        if n == 0 {
            return;
        }
        let old = self.len;
        self.len += n;
        self.bits
            .resize(self.len.div_ceil(8), if value { 0xFF } else { 0 });
        if value {
            // The byte the old tail shared gains its upper bits.
            if !old.is_multiple_of(8) {
                self.bits[old / 8] |= 0xFFu8 << (old % 8);
            }
            self.mask_tail();
        }
    }

    /// Drops every slot from `len` on; a no-op when already shorter.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.bits.truncate(len.div_ceil(8));
            self.mask_tail();
        }
    }

    /// Element-wise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(other.bits.iter()) {
            *a &= *b;
        }
        out
    }

    /// Bytes the bitmap occupies on the wire.
    pub fn wire_size(&self) -> usize {
        self.bits.len()
    }

    /// Raw packed bytes (LSB-first), for serialization.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Rebuilds from packed bytes and a length.
    pub fn from_bytes(bytes: Vec<u8>, len: usize) -> Self {
        assert!(bytes.len() >= len.div_ceil(8), "byte buffer too short");
        let mut bm = Bitmap { bits: bytes, len };
        bm.bits.truncate(len.div_ceil(8));
        bm.mask_tail();
        bm
    }

    /// Zeroes the unused bits of the final byte so `count_set` and
    /// `PartialEq` are well-defined.
    fn mask_tail(&mut self) {
        let rem = self.len % 8;
        if rem != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u8 << rem) - 1;
            }
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut bm = Bitmap::with_capacity(iter.size_hint().0);
        for v in iter {
            bm.push(v);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let pattern: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let bm = Bitmap::from_bools(&pattern);
        assert_eq!(bm.len(), 100);
        for (i, &want) in pattern.iter().enumerate() {
            assert_eq!(bm.get(i), want, "slot {i}");
        }
        assert_eq!(bm.count_set(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn from_element_all_true_masks_tail() {
        let bm = Bitmap::from_element(13, true);
        assert_eq!(bm.len(), 13);
        assert!(bm.all_set());
        assert_eq!(bm.count_set(), 13);
        let bm0 = Bitmap::from_element(13, false);
        assert!(bm0.none_set());
    }

    #[test]
    fn set_and_clear() {
        let mut bm = Bitmap::from_element(10, false);
        bm.set(3, true);
        bm.set(9, true);
        assert_eq!(bm.set_indices(), vec![3, 9]);
        bm.set(3, false);
        assert_eq!(bm.set_indices(), vec![9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::from_element(4, true).get(4);
    }

    #[test]
    fn slice_copies_a_range() {
        let bm = Bitmap::from_bools(&[true, false, true, true, false]);
        assert_eq!(
            bm.slice(1, 3).iter().collect::<Vec<_>>(),
            vec![false, true, true]
        );
    }

    #[test]
    fn aligned_fast_paths_match_the_bit_loop() {
        let pattern: Vec<bool> = (0..77).map(|i| i % 3 != 1).collect();
        let bm = Bitmap::from_bools(&pattern);
        for offset in [0, 8, 16, 5] {
            for len in [0, 1, 7, 8, 9, 40] {
                let want = Bitmap::from_bools(&pattern[offset..offset + len]);
                assert_eq!(bm.slice(offset, len), want, "slice({offset}, {len})");
            }
        }
        for head in [0, 8, 16, 3] {
            let mut joined = Bitmap::from_bools(&pattern[..head]);
            joined.extend_from(&Bitmap::from_bools(&pattern[head..]));
            assert_eq!(joined, bm, "extend at {head}");
        }
    }

    #[test]
    fn bulk_appends_and_truncate_match_the_bit_loop() {
        let pattern: Vec<bool> = (0..91).map(|i| i % 5 != 2 && i % 7 != 0).collect();
        let whole = Bitmap::from_bools(&pattern);
        for head in [0, 3, 8, 13, 64] {
            for len in [0, 1, 7, 8, 9, 27] {
                // Packed bytes with garbage past `len`.
                let mut packed = Bitmap::from_bools(&pattern[head..head + len])
                    .as_bytes()
                    .to_vec();
                if let Some(last) = packed.last_mut() {
                    if len % 8 != 0 {
                        *last |= 0xFFu8 << (len % 8);
                    }
                }
                packed.push(0xAB);
                let mut got = Bitmap::from_bools(&pattern[..head]);
                got.extend_from_packed(&packed, len);
                assert_eq!(
                    got,
                    Bitmap::from_bools(&pattern[..head + len]),
                    "{head}+{len}"
                );
                for value in [true, false] {
                    let mut run = Bitmap::from_bools(&pattern[..head]);
                    run.extend_constant(len, value);
                    let mut want = pattern[..head].to_vec();
                    want.extend(std::iter::repeat_n(value, len));
                    assert_eq!(run, Bitmap::from_bools(&want), "{head}+{len}x{value}");
                }
            }
            let mut cut = whole.clone();
            cut.truncate(head);
            assert_eq!(cut, Bitmap::from_bools(&pattern[..head]));
            cut.truncate(head + 5);
            assert_eq!(cut.len(), head);
        }
    }

    #[test]
    fn and_intersects() {
        let a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        assert_eq!(
            a.and(&b).iter().collect::<Vec<_>>(),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn byte_roundtrip() {
        let bm = Bitmap::from_bools(&[true, false, true, false, true, true, true, false, true]);
        let bytes = bm.as_bytes().to_vec();
        let back = Bitmap::from_bytes(bytes, bm.len());
        assert_eq!(back, bm);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Bitmap::from_bools(&[true, false]);
        let b = Bitmap::from_bools(&[false, true, true]);
        a.extend_from(&b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![true, false, false, true, true]
        );
    }
}
