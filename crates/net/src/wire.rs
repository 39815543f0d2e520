//! Byte-exact wire format for values, schemas and batches.
//!
//! Hand-rolled so the federation experiments can account for every
//! byte a plan ships. Layout conventions:
//!
//! * integers: unsigned LEB128 varints; signed values zigzag first
//! * strings: varint length + UTF-8 bytes
//! * arrays: type tag, length, packed validity bitmap, then payloads
//!   (fixed-width types ship all slots including invalid ones — the
//!   same simplification Arrow IPC makes)
//! * batches: schema (once per stream in practice; included here per
//!   batch for simplicity and honesty about header overhead), then
//!   column arrays
//!
//! Everything round-trips; proptest hammers the encoders below.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gis_observe::Span;
use gis_types::{
    Array, ArrayBuilder, Batch, Bitmap, DataType, Field, GisError, Result, Schema, Value, ValuesMut,
};
use std::borrow::Cow;

// ---- varint primitives ---------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint.
pub fn get_uvarint(buf: &mut impl Buf) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(truncated());
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(GisError::Network("varint overflow".into()));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends `v` zigzag-encoded.
pub fn put_ivarint(buf: &mut BytesMut, v: i64) {
    put_uvarint(buf, zigzag(v));
}

/// Reads a zigzag varint.
pub fn get_ivarint(buf: &mut impl Buf) -> Result<i64> {
    let u = get_uvarint(buf)?;
    Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
}

/// Bytes [`put_uvarint`] writes for `v`.
pub(crate) fn uvarint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).div_ceil(7).max(1)
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Bytes [`put_ivarint`] writes for `v`.
pub(crate) fn ivarint_len(v: i64) -> usize {
    uvarint_len(zigzag(v))
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut impl Buf) -> Result<String> {
    let len = get_count(buf, 1)?;
    // Validate straight from the frame slice; the only allocation is
    // the returned String itself.
    let s = std::str::from_utf8(&buf.chunk()[..len])
        .map_err(|_| GisError::Network("invalid UTF-8 on wire".into()))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

pub(crate) fn truncated() -> GisError {
    GisError::Network("truncated message".into())
}

/// Reads a count prefix and bounds it by the bytes remaining: every
/// counted item occupies at least `min_item_bytes` on the wire, so a
/// count that cannot possibly fit in the rest of the frame is a
/// corrupt frame — reject it *before* it sizes an allocation.
pub(crate) fn get_count(buf: &mut impl Buf, min_item_bytes: usize) -> Result<usize> {
    let n = usize::try_from(get_uvarint(buf)?).map_err(|_| truncated())?;
    match n.checked_mul(min_item_bytes) {
        Some(need) if need <= buf.remaining() => Ok(n),
        _ => Err(truncated()),
    }
}

// ---- type tags ------------------------------------------------------------

pub(crate) fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Null => 0,
        DataType::Boolean => 1,
        DataType::Int32 => 2,
        DataType::Int64 => 3,
        DataType::Float64 => 4,
        DataType::Utf8 => 5,
        DataType::Date => 6,
        DataType::Timestamp => 7,
    }
}

pub(crate) fn tag_type(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Null,
        1 => DataType::Boolean,
        2 => DataType::Int32,
        3 => DataType::Int64,
        4 => DataType::Float64,
        5 => DataType::Utf8,
        6 => DataType::Date,
        7 => DataType::Timestamp,
        other => {
            return Err(GisError::Network(format!(
                "unknown type tag {other} on wire"
            )))
        }
    })
}

// ---- values ----------------------------------------------------------------

/// Encodes a single value (tag + payload).
pub fn encode_value(buf: &mut BytesMut, v: &Value) {
    buf.put_u8(type_tag(v.data_type()));
    match v {
        Value::Null => {}
        Value::Boolean(b) => buf.put_u8(u8::from(*b)),
        Value::Int32(x) => put_ivarint(buf, *x as i64),
        Value::Int64(x) => put_ivarint(buf, *x),
        Value::Float64(x) => buf.put_f64_le(*x),
        Value::Utf8(s) => put_str(buf, s),
        Value::Date(d) => put_ivarint(buf, *d as i64),
        Value::Timestamp(us) => put_ivarint(buf, *us),
    }
}

/// Decodes a single value.
pub fn decode_value(buf: &mut impl Buf) -> Result<Value> {
    if !buf.has_remaining() {
        return Err(truncated());
    }
    let dt = tag_type(buf.get_u8())?;
    Ok(match dt {
        DataType::Null => Value::Null,
        DataType::Boolean => {
            if !buf.has_remaining() {
                return Err(truncated());
            }
            Value::Boolean(buf.get_u8() != 0)
        }
        DataType::Int32 => Value::Int32(get_ivarint(buf)? as i32),
        DataType::Int64 => Value::Int64(get_ivarint(buf)?),
        DataType::Float64 => {
            if buf.remaining() < 8 {
                return Err(truncated());
            }
            Value::Float64(buf.get_f64_le())
        }
        DataType::Utf8 => Value::Utf8(get_str(buf)?),
        DataType::Date => Value::Date(get_ivarint(buf)? as i32),
        DataType::Timestamp => Value::Timestamp(get_ivarint(buf)?),
    })
}

// ---- schema -----------------------------------------------------------------

/// Encodes a schema.
pub fn encode_schema(buf: &mut BytesMut, schema: &Schema) {
    put_uvarint(buf, schema.len() as u64);
    for f in schema.fields() {
        put_str(buf, &f.name);
        buf.put_u8(type_tag(f.data_type));
        buf.put_u8(u8::from(f.nullable));
        match &f.qualifier {
            Some(q) => {
                buf.put_u8(1);
                put_str(buf, q);
            }
            None => buf.put_u8(0),
        }
    }
}

/// Decodes a schema.
pub fn decode_schema(buf: &mut impl Buf) -> Result<Schema> {
    // Each field costs at least 4 bytes: empty-name varint, type tag,
    // nullable flag, qualifier flag.
    let n = get_count(buf, 4)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(buf)?;
        if buf.remaining() < 2 {
            return Err(truncated());
        }
        let dt = tag_type(buf.get_u8())?;
        let nullable = buf.get_u8() != 0;
        let has_q = {
            if !buf.has_remaining() {
                return Err(truncated());
            }
            buf.get_u8() != 0
        };
        let qualifier = if has_q { Some(get_str(buf)?) } else { None };
        fields.push(Field {
            name,
            data_type: dt,
            nullable,
            qualifier,
        });
    }
    Ok(Schema::new(fields))
}

// ---- arrays -------------------------------------------------------------------

/// The typed value slots of a [`ColumnRange`]. `Int32` also carries
/// `Date` columns and `Int64` carries `Timestamp` ones; the range's
/// `data_type` tells them apart on the wire.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slots<'a> {
    Boolean(&'a [bool]),
    Int32(&'a [i32]),
    Int64(&'a [i64]),
    Float64(&'a [f64]),
    Utf8(&'a [String]),
}

/// Rows `[offset, offset + len)` of one column, borrowed: what every
/// encoder takes, so a response chunk is encoded from the adapter's
/// batch where it lies instead of from a `slice` copy of it.
#[derive(Debug)]
pub(crate) struct ColumnRange<'a> {
    pub data_type: DataType,
    pub slots: Slots<'a>,
    /// Validity of exactly these rows (bit 0 = row `offset`).
    pub validity: Cow<'a, Bitmap>,
    /// No NULL among them: loops skip the bitmap altogether.
    pub all_valid: bool,
}

impl<'a> ColumnRange<'a> {
    /// Panics when the range reaches past the column, like slicing.
    pub(crate) fn new(a: &'a Array, offset: usize, len: usize) -> ColumnRange<'a> {
        let end = offset + len;
        let slots = match a {
            Array::Boolean(v, _) => Slots::Boolean(&v[offset..end]),
            Array::Int32(v, _) | Array::Date(v, _) => Slots::Int32(&v[offset..end]),
            Array::Int64(v, _) | Array::Timestamp(v, _) => Slots::Int64(&v[offset..end]),
            Array::Float64(v, _) => Slots::Float64(&v[offset..end]),
            Array::Utf8(v, _) => Slots::Utf8(&v[offset..end]),
        };
        let whole = a.validity();
        let validity = if offset == 0 && len == whole.len() {
            Cow::Borrowed(whole)
        } else {
            Cow::Owned(whole.slice(offset, len))
        };
        ColumnRange {
            data_type: a.data_type(),
            slots,
            all_valid: validity.count_set() == len,
            validity,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.validity.len()
    }

    /// Validity of row `i` of the range.
    #[inline]
    pub(crate) fn is_valid(&self, i: usize) -> bool {
        self.all_valid || self.validity.get(i)
    }
}

/// Appends `values` little-endian, `W` bytes each, as one sized run.
pub(crate) fn put_fixed<T: Copy, const W: usize>(
    buf: &mut BytesMut,
    values: &[T],
    to_le: impl Fn(T) -> [u8; W],
) {
    let start = buf.len();
    buf.resize(start + values.len() * W, 0);
    for (out, &v) in buf[start..].chunks_exact_mut(W).zip(values) {
        out.copy_from_slice(&to_le(v));
    }
}

/// The legacy (raw) layout of one column range.
pub(crate) fn encode_array(buf: &mut BytesMut, col: &ColumnRange<'_>) {
    buf.put_u8(type_tag(col.data_type));
    put_uvarint(buf, col.len() as u64);
    buf.put_slice(col.validity.as_bytes());
    match col.slots {
        Slots::Boolean(v) => put_fixed(buf, v, |b| [u8::from(b)]),
        Slots::Int32(v) => put_fixed(buf, v, i32::to_le_bytes),
        Slots::Int64(v) => put_fixed(buf, v, i64::to_le_bytes),
        Slots::Float64(v) => put_fixed(buf, v, f64::to_le_bytes),
        Slots::Utf8(v) => {
            for (i, s) in v.iter().enumerate() {
                if col.is_valid(i) {
                    put_str(buf, s);
                } else {
                    put_uvarint(buf, 0);
                }
            }
        }
    }
}

/// The next `n` bytes of the cursor, or a truncation error.
pub(crate) fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(truncated());
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// The wire's name for a builder's column type, for mismatch errors.
pub(crate) fn expect_type(got: DataType, builder: &ArrayBuilder) -> Result<()> {
    if got == builder.data_type() {
        Ok(())
    } else {
        Err(GisError::Network(format!(
            "column of type {got} on wire where {} was expected",
            builder.data_type()
        )))
    }
}

/// Decodes one raw-layout array by *appending* its slots to `out`,
/// returning how many. The claimed length is bounded by the cheapest
/// possible payload for the type (the validity bitmap only adds to the
/// true cost) before it sizes anything, so a corrupt length cannot
/// size a huge allocation. On error `out` may hold part of the array;
/// the caller truncates.
pub(crate) fn decode_array_into(buf: &mut &[u8], out: &mut ArrayBuilder) -> Result<usize> {
    if buf.is_empty() {
        return Err(truncated());
    }
    let dt = tag_type(buf.get_u8())?;
    if dt == DataType::Null {
        return Err(GisError::Network("null-typed array on wire".into()));
    }
    expect_type(dt, out)?;
    let min_width = match dt {
        DataType::Int32 | DataType::Date => 4,
        DataType::Int64 | DataType::Timestamp | DataType::Float64 => 8,
        _ => 1,
    };
    let len = get_count(buf, min_width)?;
    let bitmap = take_bytes(buf, len.div_ceil(8))?;
    let (values, validity) = out.parts_mut();
    let valid_from = validity.len();
    validity.extend_from_packed(bitmap, len);
    macro_rules! fixed {
        ($v:expr, $width:expr, $read:expr) => {{
            let need = len.checked_mul($width).ok_or_else(truncated)?;
            let payload = take_bytes(buf, need)?;
            $v.extend(payload.chunks_exact($width).map($read));
        }};
    }
    match values {
        ValuesMut::Boolean(v) => fixed!(v, 1, |c: &[u8]| c[0] != 0),
        ValuesMut::Int32(v) => fixed!(v, 4, |c: &[u8]| i32::from_le_bytes(
            c.try_into().expect("four-byte chunk")
        )),
        ValuesMut::Int64(v) => fixed!(v, 8, |c: &[u8]| i64::from_le_bytes(
            c.try_into().expect("eight-byte chunk")
        )),
        ValuesMut::Float64(v) => fixed!(v, 8, |c: &[u8]| f64::from_le_bytes(
            c.try_into().expect("eight-byte chunk")
        )),
        ValuesMut::Utf8(v) => {
            v.reserve(len);
            for i in 0..len {
                if validity.get(valid_from + i) {
                    v.push(get_str(buf)?);
                } else {
                    if get_uvarint(buf)? != 0 {
                        return Err(GisError::Network(
                            "non-empty payload for null string slot".into(),
                        ));
                    }
                    v.push(String::new());
                }
            }
        }
    }
    Ok(len)
}

// ---- batches ----------------------------------------------------------------

/// Encodes a batch (schema + columns) and returns the frame.
pub fn encode_batch(batch: &Batch) -> Bytes {
    let mut buf = BytesMut::new();
    encode_batch_range(&mut buf, batch, 0, batch.num_rows());
    buf.freeze()
}

/// Rows `[offset, offset + len)` of `batch` in the legacy layout.
pub(crate) fn encode_batch_range(buf: &mut BytesMut, batch: &Batch, offset: usize, len: usize) {
    encode_schema(buf, batch.schema());
    put_uvarint(buf, len as u64);
    for col in batch.columns() {
        encode_array(buf, &ColumnRange::new(col, offset, len));
    }
}

/// Decodes a batch produced by [`encode_batch`].
pub fn decode_batch(buf: Bytes) -> Result<Batch> {
    crate::codec::decode_frame_as(&buf, false)
}

/// Encodes a list of scalar values (bind-join key shipping).
pub fn encode_values(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::new();
    put_uvarint(&mut buf, values.len() as u64);
    for v in values {
        encode_value(&mut buf, v);
    }
    buf.freeze()
}

/// Exact length of [`encode_values`]`(values)`, without encoding.
pub fn values_wire_size(values: &[Value]) -> usize {
    let payload = |v: &Value| match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Int32(x) | Value::Date(x) => ivarint_len(i64::from(*x)),
        Value::Int64(x) | Value::Timestamp(x) => ivarint_len(*x),
        Value::Float64(_) => 8,
        Value::Utf8(s) => uvarint_len(s.len() as u64) + s.len(),
    };
    uvarint_len(values.len() as u64) + values.iter().map(|v| 1 + payload(v)).sum::<usize>()
}

/// Decodes a list of scalar values.
pub fn decode_values(mut buf: Bytes) -> Result<Vec<Value>> {
    // Every encoded value is at least a one-byte type tag.
    let n = get_count(&mut buf, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_value(&mut buf)?);
    }
    Ok(out)
}

// ---- operator spans ---------------------------------------------------------

/// Span trees deeper than this are rejected as corrupt: no physical
/// plan a source executes comes close, and the bound keeps a hostile
/// frame from recursing the decoder off the stack.
const MAX_SPAN_DEPTH: usize = 64;

/// Encodes an operator span tree (remote `EXPLAIN ANALYZE` stats) and
/// returns the frame.
pub fn encode_span(span: &Span) -> Bytes {
    let mut buf = BytesMut::new();
    encode_span_into(&mut buf, span);
    buf.freeze()
}

fn encode_span_into(buf: &mut BytesMut, span: &Span) {
    put_str(buf, &span.label);
    put_uvarint(buf, span.rows_in);
    put_uvarint(buf, span.rows_out);
    put_uvarint(buf, span.bytes);
    put_uvarint(buf, span.wall_us);
    put_uvarint(buf, span.children.len() as u64);
    for c in &span.children {
        encode_span_into(buf, c);
    }
}

/// Decodes a span tree produced by [`encode_span`].
pub fn decode_span(mut buf: Bytes) -> Result<Span> {
    let span = decode_span_at(&mut buf, 0)?;
    if buf.has_remaining() {
        return Err(GisError::Network("trailing bytes after span".into()));
    }
    Ok(span)
}

fn decode_span_at(buf: &mut Bytes, depth: usize) -> Result<Span> {
    if depth > MAX_SPAN_DEPTH {
        return Err(GisError::Network("span tree too deep on wire".into()));
    }
    let label = get_str(buf)?;
    let rows_in = get_uvarint(buf)?;
    let rows_out = get_uvarint(buf)?;
    let bytes = get_uvarint(buf)?;
    let wall_us = get_uvarint(buf)?;
    // Each child span costs at least 6 bytes (empty label + five
    // varints).
    let n_children = get_count(buf, 6)?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        children.push(decode_span_at(buf, depth + 1)?);
    }
    // Sources report no estimates — the optimizer's picture lives at
    // the mediator, so wire spans leave `est_rows` at 0.
    Ok(Span {
        label,
        rows_in,
        rows_out,
        bytes,
        wall_us,
        children,
        ..Span::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_types::Field;
    use proptest::prelude::*;

    fn sample_batch() -> Batch {
        Batch::from_rows(
            Schema::new(vec![
                Field::required("id", DataType::Int64).with_qualifier("t"),
                Field::new("name", DataType::Utf8),
                Field::new("score", DataType::Float64),
                Field::new("day", DataType::Date),
            ])
            .into_ref(),
            &[
                vec![
                    Value::Int64(1),
                    Value::Utf8("ada".into()),
                    Value::Float64(0.5),
                    Value::Date(1000),
                ],
                vec![Value::Int64(2), Value::Null, Value::Null, Value::Null],
                vec![
                    Value::Int64(-3),
                    Value::Utf8("héllo".into()),
                    Value::Float64(-1.25),
                    Value::Date(-10),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn batch_roundtrip() {
        let b = sample_batch();
        let bytes = encode_batch(&b);
        let back = decode_batch(bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let b = Batch::empty(Schema::new(vec![Field::new("x", DataType::Boolean)]).into_ref());
        assert_eq!(decode_batch(encode_batch(&b)).unwrap(), b);
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let bytes = encode_batch(&sample_batch());
        for cut in 0..bytes.len() {
            let sliced = bytes.slice(0..cut);
            assert!(decode_batch(sliced).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_length_prefixes_error_without_allocating() {
        // Each frame claims an absurd element count backed by almost
        // no bytes. Pre-hardening, these sized `Vec::with_capacity`
        // straight from the wire (capacity-overflow panic or OOM);
        // now every count is bounded by the remaining frame bytes.
        let huge = u64::MAX / 2;

        // Schema with a huge field count.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, huge);
        assert!(decode_schema(&mut buf.freeze()).is_err());

        // Array with a huge length.
        let mut buf = BytesMut::new();
        buf.put_u8(type_tag(DataType::Int64));
        put_uvarint(&mut buf, huge);
        buf.put_u8(0xFF); // one stray bitmap byte
        let mut out = ArrayBuilder::new(DataType::Int64);
        assert!(decode_array_into(&mut &buf[..], &mut out).is_err());

        // Utf8 array whose length passes the bitmap check but not the
        // one-byte-per-slot payload bound.
        let mut buf = BytesMut::new();
        buf.put_u8(type_tag(DataType::Utf8));
        put_uvarint(&mut buf, 64); // needs 8 bitmap bytes + 64 payload bytes
        buf.put_slice(&[0xFF; 8]);
        let mut out = ArrayBuilder::new(DataType::Utf8);
        assert!(decode_array_into(&mut &buf[..], &mut out).is_err());

        // Value list with a huge count.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, huge);
        assert!(decode_values(buf.freeze()).is_err());

        // String with a huge byte length.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, huge);
        buf.put_slice(b"abc");
        assert!(get_str(&mut buf.freeze()).is_err());

        // Batch whose row count overflows usize arithmetic.
        let b = sample_batch();
        let mut buf = BytesMut::new();
        encode_schema(&mut buf, b.schema());
        put_uvarint(&mut buf, u64::MAX);
        assert!(decode_batch(buf.freeze()).is_err());
    }

    #[test]
    fn span_roundtrip_and_corrupt_frames() {
        let span = Span::leaf("HashJoin[inner]")
            .with_rows_in(10)
            .with_rows_out(4)
            .with_wall_us(123)
            .with_child(Span::leaf("scan[t]").with_rows_out(10).with_bytes(2048));
        assert_eq!(decode_span(encode_span(&span)).unwrap(), span);

        // Truncation at every cut point errors instead of panicking.
        let bytes = encode_span(&span);
        for cut in 0..bytes.len() {
            assert!(decode_span(bytes.slice(0..cut)).is_err(), "cut at {cut}");
        }

        // A frame claiming a huge child count is rejected.
        let mut buf = BytesMut::new();
        put_str(&mut buf, "x");
        for _ in 0..4 {
            put_uvarint(&mut buf, 0);
        }
        put_uvarint(&mut buf, u64::MAX / 4);
        assert!(decode_span(buf.freeze()).is_err());

        // A pathologically deep chain is rejected, not recursed.
        let mut deep = Span::leaf("leaf");
        for _ in 0..200 {
            deep = Span::leaf("n").with_child(deep);
        }
        assert!(decode_span(encode_span(&deep)).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = BytesMut::from(&encode_batch(&sample_batch())[..]);
        buf.put_u8(0xAB);
        assert!(decode_batch(buf.freeze()).is_err());
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, u64::MAX] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            assert_eq!(get_uvarint(&mut buf.freeze()).unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            let mut buf = BytesMut::new();
            put_ivarint(&mut buf, v);
            assert_eq!(get_ivarint(&mut buf.freeze()).unwrap(), v);
        }
    }

    #[test]
    fn value_list_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Boolean(true),
            Value::Int32(-7),
            Value::Int64(1 << 40),
            Value::Float64(2.5),
            Value::Utf8(String::new()),
            Value::Date(0),
            Value::Timestamp(-5),
        ];
        assert_eq!(decode_values(encode_values(&vals)).unwrap(), vals);
        // The size formula is the encoder's length, key by key.
        for n in 0..=vals.len() {
            assert_eq!(
                values_wire_size(&vals[..n]),
                encode_values(&vals[..n]).len()
            );
        }
        let extremes = [
            Value::Int64(i64::MIN),
            Value::Int32(i32::MIN),
            Value::Date(-1),
        ];
        assert_eq!(values_wire_size(&extremes), encode_values(&extremes).len());
    }

    proptest! {
        #[test]
        fn prop_ivarint_roundtrip(v in any::<i64>()) {
            let mut buf = BytesMut::new();
            put_ivarint(&mut buf, v);
            prop_assert_eq!(get_ivarint(&mut buf.freeze()).unwrap(), v);
        }

        #[test]
        fn prop_value_roundtrip(v in value_strategy()) {
            let mut buf = BytesMut::new();
            encode_value(&mut buf, &v);
            let back = decode_value(&mut buf.freeze()).unwrap();
            // Bitwise comparison for floats: encode preserves bits.
            prop_assert_eq!(format!("{back:?}"), format!("{v:?}"));
        }

        #[test]
        fn prop_int_batch_roundtrip(rows in proptest::collection::vec(
            (any::<Option<i64>>(), any::<Option<bool>>()), 0..50)
        ) {
            let schema = Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Boolean),
            ]).into_ref();
            let value_rows: Vec<Vec<Value>> = rows.iter().map(|(a, b)| vec![
                a.map_or(Value::Null, Value::Int64),
                b.map_or(Value::Null, Value::Boolean),
            ]).collect();
            let batch = Batch::from_rows(schema, &value_rows).unwrap();
            prop_assert_eq!(decode_batch(encode_batch(&batch)).unwrap(), batch);
        }
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Boolean),
            any::<i32>().prop_map(Value::Int32),
            any::<i64>().prop_map(Value::Int64),
            any::<f64>().prop_map(Value::Float64),
            ".*".prop_map(Value::Utf8),
            any::<i32>().prop_map(Value::Date),
            any::<i64>().prop_map(Value::Timestamp),
        ]
    }
}
