//! Compressed wire frames: adaptive per-column codecs.
//!
//! Version-1 frames start with a two-byte `MAGIC, VERSION` header so
//! legacy raw frames (which begin with a schema field-count varint)
//! still decode: [`decode_frame`] sniffs the first byte and falls
//! back to [`crate::wire::decode_batch`]. The magic byte has its high
//! bit set, so it can never be the first byte of a legacy frame — the
//! legacy encoder emits the schema field count as a varint whose
//! first byte only carries a continuation bit for 128+ fields, which
//! no planner-produced schema reaches (and such a frame would still
//! have to match the version byte and then decode cleanly).
//!
//! Each column independently selects the cheapest of five layouts
//! from one exact stats pass over its values (shipped chunks are
//! small, so "sampling" the column is simply reading it):
//!
//! * **raw** (0): the legacy array layout, byte-identical fallback —
//!   wins for high-entropy integers where varints cost more than
//!   eight flat bytes;
//! * **dict** (1): up to 256 distinct values + bit-packed codes;
//! * **rle** (2): (run length, value) pairs, null runs included;
//! * **delta** (3): frame-of-reference bit-packed integers — offsets
//!   from the column minimum, or zigzag deltas between consecutive
//!   valid slots, whichever packs narrower;
//! * **nullsup** (4): validity bitmap + payloads for valid slots only
//!   (varint integers, so this doubles as the dense-integer layout).
//!
//! Floats compare *bitwise* throughout (runs, dictionaries), so
//! `-0.0` vs `0.0` and NaN payloads survive the codec unchanged.
//!
//! Decoders follow the same hostile-frame discipline as
//! `wire::get_count`: every count, width and run length is bounded by
//! the bytes remaining or by [`MAX_FRAME_ROWS`] *before* it sizes an
//! allocation, so truncated dictionaries, out-of-range codes and
//! absurd run lengths error instead of panicking or ballooning.
//! Payload bytes under NULL slots decode to the type's default — the
//! same zeroed representation array builders produce.

use crate::wire::{
    decode_array, decode_schema, decode_value, encode_array, encode_schema, encode_value,
    get_count, get_ivarint, get_str, get_uvarint, put_ivarint, put_str, put_uvarint, tag_type,
    truncated, type_tag,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gis_types::{Array, ArrayBuilder, Batch, Bitmap, DataType, GisError, Result, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First byte of a compressed frame.
pub const FRAME_MAGIC: u8 = 0xC6;
/// Wire-protocol version this build encodes.
pub const FRAME_VERSION: u8 = 1;
/// Row-count ceiling for one compressed frame. The mediator ships
/// chunked results far below this; the cap bounds how large an array
/// a tiny hostile frame (a few RLE bytes claiming a huge row count)
/// can make the decoder build. Batches above the cap encode through
/// the legacy layout, which prices every row in frame bytes.
pub const MAX_FRAME_ROWS: usize = 1 << 20;
/// Distinct-value ceiling for dictionary encoding: one- to eight-bit
/// codes cover the categorical columns dictionaries are for; past 256
/// entries the dictionary rarely beats the other layouts.
pub const DICT_MAX: usize = 256;

/// Number of column codecs (sizes the per-codec counter arrays).
pub const CODEC_COUNT: usize = 5;

/// One column's chosen layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ColumnCodec {
    /// Legacy flat array layout.
    Raw = 0,
    /// Dictionary + bit-packed codes.
    Dict = 1,
    /// Run-length encoding.
    Rle = 2,
    /// Delta / frame-of-reference bit-packed integers.
    Delta = 3,
    /// Null-suppressed varint payloads.
    NullSup = 4,
}

impl ColumnCodec {
    /// Short name used in spans and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            ColumnCodec::Raw => "raw",
            ColumnCodec::Dict => "dict",
            ColumnCodec::Rle => "rle",
            ColumnCodec::Delta => "delta",
            ColumnCodec::NullSup => "nullsup",
        }
    }

    /// All codecs, index-aligned with their wire tags.
    pub fn all() -> [ColumnCodec; CODEC_COUNT] {
        [
            ColumnCodec::Raw,
            ColumnCodec::Dict,
            ColumnCodec::Rle,
            ColumnCodec::Delta,
            ColumnCodec::NullSup,
        ]
    }

    fn from_tag(tag: u8) -> Result<ColumnCodec> {
        Ok(match tag {
            0 => ColumnCodec::Raw,
            1 => ColumnCodec::Dict,
            2 => ColumnCodec::Rle,
            3 => ColumnCodec::Delta,
            4 => ColumnCodec::NullSup,
            other => {
                return Err(GisError::Network(format!(
                    "unknown column codec {other} on wire"
                )))
            }
        })
    }
}

/// What one frame encode produced: the bytes the legacy layout would
/// have cost, the bytes actually put on the wire, and how many
/// columns picked each codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Bytes the legacy encoding of the same batch occupies.
    pub raw: usize,
    /// Bytes of the frame as encoded.
    pub wire: usize,
    /// Columns per codec, indexed by codec tag.
    pub codecs: [u32; CODEC_COUNT],
}

impl FrameStats {
    /// Merges another frame's stats into this one (per-exchange
    /// aggregation for the `wire[...]` span).
    pub fn absorb(&mut self, other: &FrameStats) {
        self.raw += other.raw;
        self.wire += other.wire;
        for (a, b) in self.codecs.iter_mut().zip(other.codecs.iter()) {
            *a += b;
        }
    }

    /// Compact `name*count` summary of the codecs used, e.g.
    /// `dict*3,delta*1`; `legacy` when no column went through a codec
    /// (raw-mode frames).
    pub fn codec_summary(&self) -> String {
        let parts: Vec<String> = ColumnCodec::all()
            .into_iter()
            .filter(|c| self.codecs[*c as usize] > 0)
            .map(|c| format!("{}*{}", c.name(), self.codecs[c as usize]))
            .collect();
        if parts.is_empty() {
            "legacy".into()
        } else {
            parts.join(",")
        }
    }
}

/// Shared wire-compression counters: one set per federation, bumped
/// by every remote exchange, scraped by the runtime's metrics text.
#[derive(Debug, Default)]
pub struct WireStats {
    raw_bytes: AtomicU64,
    wire_bytes: AtomicU64,
    frames: AtomicU64,
    columns: [AtomicU64; CODEC_COUNT],
}

impl WireStats {
    /// A fresh counter set behind an `Arc`.
    pub fn shared() -> Arc<WireStats> {
        Arc::new(WireStats::default())
    }

    /// Records one encoded frame.
    pub fn record(&self, stats: &FrameStats) {
        self.raw_bytes
            .fetch_add(stats.raw as u64, Ordering::Relaxed);
        self.wire_bytes
            .fetch_add(stats.wire as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        for (counter, &n) in self.columns.iter().zip(stats.codecs.iter()) {
            if n > 0 {
                counter.fetch_add(u64::from(n), Ordering::Relaxed);
            }
        }
    }

    /// Total pre-compression bytes of recorded frames.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes.load(Ordering::Relaxed)
    }

    /// Total on-the-wire bytes of recorded frames.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Frames recorded.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Columns that selected `codec`.
    pub fn columns(&self, codec: ColumnCodec) -> u64 {
        self.columns[codec as usize].load(Ordering::Relaxed)
    }
}

// ---- size accounting -------------------------------------------------------

fn uvarint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).div_ceil(7).max(1)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn ivarint_len(v: i64) -> usize {
    uvarint_len(zigzag(v))
}

/// Exact length of the legacy (raw) encoding of one array.
fn raw_array_size(a: &Array) -> usize {
    let n = a.len();
    let header = 1 + uvarint_len(n as u64) + n.div_ceil(8);
    let payload = match a {
        Array::Boolean(v, _) => v.len(),
        Array::Int32(v, _) | Array::Date(v, _) => v.len() * 4,
        Array::Int64(v, _) | Array::Timestamp(v, _) => v.len() * 8,
        Array::Float64(v, _) => v.len() * 8,
        Array::Utf8(v, m) => v
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if m.get(i) {
                    uvarint_len(s.len() as u64) + s.len()
                } else {
                    1
                }
            })
            .sum(),
    };
    header + payload
}

/// Exact length of the legacy encoding of a whole batch — what the
/// wire *would* have carried uncompressed. Computed by formula so the
/// raw side of every `raw/sent` ratio costs no second encode.
pub fn raw_frame_size(batch: &Batch) -> usize {
    let schema = batch.schema();
    let mut size = uvarint_len(schema.len() as u64);
    for f in schema.fields() {
        size += uvarint_len(f.name.len() as u64) + f.name.len() + 3;
        if let Some(q) = &f.qualifier {
            size += uvarint_len(q.len() as u64) + q.len();
        }
    }
    size += uvarint_len(batch.num_rows() as u64);
    size + batch.columns().iter().map(raw_array_size).sum::<usize>()
}

// ---- bit packing -----------------------------------------------------------

fn packed_len(n: usize, width: u8) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Bits needed to represent `max` (0 for 0).
fn bits_for(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

fn width_mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn pack_bits(buf: &mut BytesMut, vals: impl Iterator<Item = u64>, width: u8) {
    if width == 0 {
        return;
    }
    let mask = width_mask(width);
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    for v in vals {
        acc |= u128::from(v & mask) << nbits;
        nbits += u32::from(width);
        while nbits >= 8 {
            buf.put_u8(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        buf.put_u8(acc as u8);
    }
}

/// LSB-first reader over a length-checked packed run.
struct BitReader {
    bytes: Bytes,
    acc: u128,
    nbits: u32,
    pos: usize,
}

impl BitReader {
    fn new(bytes: Bytes) -> BitReader {
        BitReader {
            bytes,
            acc: 0,
            nbits: 0,
            pos: 0,
        }
    }

    fn read(&mut self, width: u8) -> u64 {
        if width == 0 {
            return 0;
        }
        while self.nbits < u32::from(width) {
            // The packed run was length-checked before this reader
            // was built, so the next byte always exists.
            self.acc |= u128::from(self.bytes[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
        let v = (self.acc as u64) & width_mask(width);
        self.acc >>= width;
        self.nbits -= u32::from(width);
        v
    }
}

// ---- column plans ----------------------------------------------------------

/// The per-column stats pass shared by every type: run boundaries
/// (bitwise equality for floats), a capped distinct set, and exact
/// candidate sizes. `S` is the cheap slot representation (bits for
/// floats, `&str` for strings) so the pass allocates nothing per
/// slot; run values are stored as start offsets into the array.
struct GenericStats {
    /// (run length, start slot) pairs.
    runs: Vec<(u64, usize)>,
    rle_size: usize,
    dict: Option<(Vec<Value>, Vec<u16>)>,
    dict_size: usize,
    nullsup_size: usize,
}

fn generic_stats<S, FL, FV>(
    n: usize,
    slots: impl Iterator<Item = Option<S>>,
    payload_len: FL,
    to_value: FV,
) -> GenericStats
where
    S: std::hash::Hash + Eq + Clone,
    FL: Fn(&S) -> usize,
    FV: Fn(&S) -> Value,
{
    let bitmap_bytes = n.div_ceil(8);
    let mut runs: Vec<(u64, usize)> = Vec::new();
    let mut rle_body = 0usize;
    let mut run_val: Option<Option<S>> = None;
    let mut run_len = 0u64;
    let mut run_start = 0usize;
    let mut dict_map: HashMap<S, u16> = HashMap::new();
    let mut dict_values: Vec<Value> = Vec::new();
    let mut dict_payload = 0usize;
    let mut codes: Vec<u16> = Vec::with_capacity(n);
    let mut dict_ok = true;
    let mut nullsup_payload = 0usize;
    for (i, slot) in slots.enumerate() {
        if matches!(&run_val, Some(p) if *p == slot) {
            run_len += 1;
        } else {
            if let Some(p) = run_val.take() {
                runs.push((run_len, run_start));
                rle_body += uvarint_len(run_len) + p.as_ref().map_or(1, |s| 1 + payload_len(s));
            }
            run_val = Some(slot.clone());
            run_len = 1;
            run_start = i;
        }
        if let Some(s) = &slot {
            nullsup_payload += payload_len(s);
            if dict_ok {
                let next = dict_map.len() as u16;
                let code = *dict_map.entry(s.clone()).or_insert(next);
                if usize::from(code) == dict_values.len() {
                    if dict_values.len() >= DICT_MAX {
                        dict_ok = false;
                    } else {
                        dict_payload += 1 + payload_len(s);
                        dict_values.push(to_value(s));
                    }
                }
                if dict_ok {
                    codes.push(code);
                }
            }
        } else if dict_ok {
            codes.push(0);
        }
    }
    if let Some(p) = run_val.take() {
        runs.push((run_len, run_start));
        rle_body += uvarint_len(run_len) + p.as_ref().map_or(1, |s| 1 + payload_len(s));
    }
    let rle_size = 1 + uvarint_len(runs.len() as u64) + rle_body;
    let nullsup_size = 1 + bitmap_bytes + nullsup_payload;
    let (dict, dict_size) = if dict_ok && !dict_values.is_empty() {
        let width = bits_for(dict_values.len() as u64 - 1);
        let size = 1
            + bitmap_bytes
            + uvarint_len(dict_values.len() as u64)
            + dict_payload
            + 1
            + packed_len(n, width);
        (Some((dict_values, codes)), size)
    } else {
        (None, usize::MAX)
    };
    GenericStats {
        runs,
        rle_size,
        dict,
        dict_size,
        nullsup_size,
    }
}

/// Integer delta/frame-of-reference plan: `(mode, base, width)`.
/// Mode 0 packs `v - min`; mode 1 packs zigzag deltas between
/// consecutive valid slots (NULLs carry the previous value, and the
/// first valid slot's delta from `base` is zero). All arithmetic
/// wraps, and the decoder wraps identically, so extreme ranges
/// round-trip.
fn int_delta_plan(vals: &[i64], m: &Bitmap) -> (u8, i64, u8) {
    let mut any = false;
    let (mut min, mut max, mut first, mut prev) = (0i64, 0i64, 0i64, 0i64);
    let mut max_zz = 0u64;
    for (i, &v) in vals.iter().enumerate() {
        if !m.get(i) {
            continue;
        }
        if !any {
            any = true;
            min = v;
            max = v;
            first = v;
        } else {
            min = min.min(v);
            max = max.max(v);
            max_zz = max_zz.max(zigzag(v.wrapping_sub(prev)));
        }
        prev = v;
    }
    if !any {
        return (0, 0, 0);
    }
    let for_width = bits_for(max.wrapping_sub(min) as u64);
    let delta_width = bits_for(max_zz);
    if delta_width < for_width {
        (1, first, delta_width)
    } else {
        (0, min, for_width)
    }
}

struct Plan<'a> {
    codec: ColumnCodec,
    runs: Vec<(u64, usize)>,
    dict: Option<(Vec<Value>, Vec<u16>)>,
    delta: Option<(u8, i64, u8)>,
    /// The widened slots of an integer column, built once for the
    /// stats pass and reused by the delta encoder.
    ints: Option<Cow<'a, [i64]>>,
}

fn int_value(dt: DataType, v: i64) -> Value {
    match dt {
        DataType::Int32 => Value::Int32(v as i32),
        DataType::Date => Value::Date(v as i32),
        DataType::Timestamp => Value::Timestamp(v),
        _ => Value::Int64(v),
    }
}

/// An integer-class column's slots as `i64`: borrowed when they
/// already are, widened otherwise.
fn int_slots(a: &Array) -> Option<Cow<'_, [i64]>> {
    match a {
        Array::Int32(v, _) | Array::Date(v, _) => {
            Some(Cow::Owned(v.iter().map(|&x| i64::from(x)).collect()))
        }
        Array::Int64(v, _) | Array::Timestamp(v, _) => Some(Cow::Borrowed(v.as_slice())),
        _ => None,
    }
}

fn plan_column(a: &Array) -> Plan<'_> {
    let n = a.len();
    let raw = raw_array_size(a);
    let mut ints = None;
    let (st, delta) = match a {
        Array::Boolean(v, m) => (
            generic_stats(
                n,
                (0..n).map(|i| m.get(i).then(|| v[i])),
                |_| 1,
                |&b| Value::Boolean(b),
            ),
            None,
        ),
        Array::Float64(v, m) => (
            generic_stats(
                n,
                (0..n).map(|i| m.get(i).then(|| v[i].to_bits())),
                |_| 8,
                |&bits| Value::Float64(f64::from_bits(bits)),
            ),
            None,
        ),
        Array::Utf8(v, m) => (
            generic_stats(
                n,
                (0..n).map(|i| m.get(i).then(|| v[i].as_str())),
                |s: &&str| uvarint_len(s.len() as u64) + s.len(),
                |s: &&str| Value::Utf8((*s).to_string()),
            ),
            None,
        ),
        _ => {
            let dt = a.data_type();
            let m = a.validity();
            let vals = int_slots(a).expect("non-generic arrays are integers");
            let st = generic_stats(
                n,
                (0..n).map(|i| m.get(i).then(|| vals[i])),
                |&v| ivarint_len(v),
                |&v| int_value(dt, v),
            );
            let (mode, base, width) = int_delta_plan(&vals, m);
            let delta_size = 1 + n.div_ceil(8) + 1 + ivarint_len(base) + 1 + packed_len(n, width);
            ints = Some(vals);
            (st, Some((mode, base, width, delta_size)))
        }
    };
    let mut cands = vec![
        (ColumnCodec::Raw, raw),
        (ColumnCodec::Dict, st.dict_size),
        (ColumnCodec::Rle, st.rle_size),
        (ColumnCodec::NullSup, st.nullsup_size),
    ];
    if let Some((_, _, _, size)) = delta {
        cands.push((ColumnCodec::Delta, size));
    }
    let codec = cands
        .iter()
        .min_by_key(|(c, s)| (*s, *c))
        .expect("raw is always a candidate")
        .0;
    Plan {
        codec,
        runs: st.runs,
        dict: st.dict,
        delta: delta.map(|(mode, base, width, _)| (mode, base, width)),
        ints,
    }
}

// ---- column encode ---------------------------------------------------------

fn encode_column(buf: &mut BytesMut, a: &Array) -> ColumnCodec {
    let plan = plan_column(a);
    buf.put_u8(plan.codec as u8);
    match plan.codec {
        ColumnCodec::Raw => encode_array(buf, a),
        ColumnCodec::Dict => {
            let (values, codes) = plan.dict.expect("dict plan carries its dictionary");
            buf.put_u8(type_tag(a.data_type()));
            buf.put_slice(a.validity().as_bytes());
            put_uvarint(buf, values.len() as u64);
            for v in &values {
                encode_value(buf, v);
            }
            let width = bits_for(values.len() as u64 - 1);
            buf.put_u8(width);
            pack_bits(buf, codes.iter().map(|&c| u64::from(c)), width);
        }
        ColumnCodec::Rle => {
            buf.put_u8(type_tag(a.data_type()));
            put_uvarint(buf, plan.runs.len() as u64);
            for &(len, start) in &plan.runs {
                put_uvarint(buf, len);
                encode_value(buf, &a.value_at(start));
            }
        }
        ColumnCodec::Delta => {
            let (mode, base, width) = plan.delta.expect("delta plan carries its parameters");
            let vals = plan.ints.expect("delta only plans integer columns");
            let m = a.validity();
            buf.put_u8(type_tag(a.data_type()));
            buf.put_slice(m.as_bytes());
            buf.put_u8(mode);
            put_ivarint(buf, base);
            buf.put_u8(width);
            let mut prev = base;
            pack_bits(
                buf,
                vals.iter().enumerate().map(|(i, &v)| {
                    if !m.get(i) {
                        0
                    } else if mode == 0 {
                        v.wrapping_sub(base) as u64
                    } else {
                        let d = v.wrapping_sub(prev);
                        prev = v;
                        zigzag(d)
                    }
                }),
                width,
            );
        }
        ColumnCodec::NullSup => {
            buf.put_u8(type_tag(a.data_type()));
            buf.put_slice(a.validity().as_bytes());
            match a {
                Array::Boolean(v, m) => {
                    for (i, &b) in v.iter().enumerate() {
                        if m.get(i) {
                            buf.put_u8(u8::from(b));
                        }
                    }
                }
                Array::Float64(v, m) => {
                    for (i, &x) in v.iter().enumerate() {
                        if m.get(i) {
                            buf.put_f64_le(x);
                        }
                    }
                }
                Array::Utf8(v, m) => {
                    for (i, s) in v.iter().enumerate() {
                        if m.get(i) {
                            put_str(buf, s);
                        }
                    }
                }
                Array::Int32(v, m) | Array::Date(v, m) => {
                    for (i, &x) in v.iter().enumerate() {
                        if m.get(i) {
                            put_ivarint(buf, i64::from(x));
                        }
                    }
                }
                Array::Int64(v, m) | Array::Timestamp(v, m) => {
                    for (i, &x) in v.iter().enumerate() {
                        if m.get(i) {
                            put_ivarint(buf, x);
                        }
                    }
                }
            }
        }
    }
    plan.codec
}

// ---- column decode ---------------------------------------------------------

fn read_type(buf: &mut Bytes) -> Result<DataType> {
    if !buf.has_remaining() {
        return Err(truncated());
    }
    let dt = tag_type(buf.get_u8())?;
    if dt == DataType::Null {
        return Err(GisError::Network("null-typed column on wire".into()));
    }
    Ok(dt)
}

fn read_bitmap(buf: &mut Bytes, rows: usize) -> Result<Bitmap> {
    let bytes = rows.div_ceil(8);
    if buf.remaining() < bytes {
        return Err(truncated());
    }
    Ok(Bitmap::from_bytes(buf.copy_to_bytes(bytes).to_vec(), rows))
}

fn read_packed(buf: &mut Bytes, rows: usize, width: u8) -> Result<BitReader> {
    let bytes = packed_len(rows, width);
    if buf.remaining() < bytes {
        return Err(truncated());
    }
    Ok(BitReader::new(buf.copy_to_bytes(bytes)))
}

fn narrow32(v: i64) -> Result<i32> {
    i32::try_from(v).map_err(|_| GisError::Network("32-bit column value overflows".into()))
}

fn int_array(dt: DataType, vals: Vec<i64>, validity: Bitmap) -> Result<Array> {
    let narrow = |vals: &[i64], m: &Bitmap| -> Result<Vec<i32>> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| if m.get(i) { narrow32(v) } else { Ok(0) })
            .collect()
    };
    Ok(match dt {
        DataType::Int32 => Array::Int32(narrow(&vals, &validity)?.into(), validity.into()),
        DataType::Date => Array::Date(narrow(&vals, &validity)?.into(), validity.into()),
        DataType::Timestamp => Array::Timestamp(vals.into(), validity.into()),
        DataType::Int64 => Array::Int64(vals.into(), validity.into()),
        _ => {
            return Err(GisError::Network(
                "integer codec on non-integer type".into(),
            ))
        }
    })
}

fn is_integer(dt: DataType) -> bool {
    matches!(
        dt,
        DataType::Int32 | DataType::Int64 | DataType::Date | DataType::Timestamp
    )
}

fn decode_column(buf: &mut Bytes, rows: usize) -> Result<Array> {
    if !buf.has_remaining() {
        return Err(truncated());
    }
    let codec = ColumnCodec::from_tag(buf.get_u8())?;
    match codec {
        ColumnCodec::Raw => {
            let a = decode_array(buf)?;
            if a.len() != rows {
                return Err(GisError::Network(format!(
                    "column length {} does not match row count {rows}",
                    a.len()
                )));
            }
            Ok(a)
        }
        ColumnCodec::Dict => {
            let dt = read_type(buf)?;
            let validity = read_bitmap(buf, rows)?;
            // Each dictionary entry costs at least its one-byte tag.
            let d = get_count(buf, 1)?;
            if d > DICT_MAX {
                return Err(GisError::Network(format!(
                    "dictionary of {d} entries exceeds cap {DICT_MAX}"
                )));
            }
            if d == 0 && validity.count_set() > 0 {
                return Err(GisError::Network(
                    "empty dictionary with valid slots".into(),
                ));
            }
            let mut values = Vec::with_capacity(d);
            for _ in 0..d {
                let v = decode_value(buf)?;
                if v.is_null() {
                    return Err(GisError::Network("null dictionary entry".into()));
                }
                if v.data_type() != dt {
                    return Err(GisError::Network("dictionary entry type mismatch".into()));
                }
                values.push(v);
            }
            if !buf.has_remaining() {
                return Err(truncated());
            }
            let width = buf.get_u8();
            if width > 16 {
                return Err(GisError::Network(format!(
                    "absurd dictionary code width {width}"
                )));
            }
            let mut codes = read_packed(buf, rows, width)?;
            let mut b = ArrayBuilder::with_capacity(dt, rows);
            for i in 0..rows {
                let code = codes.read(width) as usize;
                if validity.get(i) {
                    let v = values.get(code).ok_or_else(|| {
                        GisError::Network(format!("dictionary code {code} out of range ({d})"))
                    })?;
                    b.push_value(v)
                        .map_err(|e| GisError::Network(format!("malformed dictionary: {e}")))?;
                } else {
                    b.push_null();
                }
            }
            Ok(b.finish())
        }
        ColumnCodec::Rle => {
            let dt = read_type(buf)?;
            // Each run costs at least two bytes: length + value tag.
            let n_runs = get_count(buf, 2)?;
            let mut b = ArrayBuilder::new(dt);
            for _ in 0..n_runs {
                let run = usize::try_from(get_uvarint(buf)?).map_err(|_| truncated())?;
                if run == 0 {
                    return Err(GisError::Network("zero-length run on wire".into()));
                }
                if run > rows - b.len() {
                    return Err(GisError::Network(format!(
                        "run of {run} overruns {rows}-row column"
                    )));
                }
                let v = decode_value(buf)?;
                if !v.is_null() && v.data_type() != dt {
                    return Err(GisError::Network("run value type mismatch".into()));
                }
                for _ in 0..run {
                    b.push_value(&v)
                        .map_err(|e| GisError::Network(format!("malformed run: {e}")))?;
                }
            }
            if b.len() != rows {
                return Err(GisError::Network(format!(
                    "runs cover {} of {rows} rows",
                    b.len()
                )));
            }
            Ok(b.finish())
        }
        ColumnCodec::Delta => {
            let dt = read_type(buf)?;
            if !is_integer(dt) {
                return Err(GisError::Network("delta codec on non-integer type".into()));
            }
            let validity = read_bitmap(buf, rows)?;
            if buf.remaining() < 2 {
                return Err(truncated());
            }
            let mode = buf.get_u8();
            if mode > 1 {
                return Err(GisError::Network(format!("unknown delta mode {mode}")));
            }
            let base = get_ivarint(buf)?;
            if !buf.has_remaining() {
                return Err(truncated());
            }
            let width = buf.get_u8();
            if width > 64 {
                return Err(GisError::Network(format!("absurd bit width {width}")));
            }
            let mut packed = read_packed(buf, rows, width)?;
            let mut vals = Vec::with_capacity(rows);
            let mut prev = base;
            for i in 0..rows {
                let u = packed.read(width);
                if !validity.get(i) {
                    vals.push(0);
                } else if mode == 0 {
                    vals.push(base.wrapping_add(u as i64));
                } else {
                    prev = prev.wrapping_add(unzigzag(u));
                    vals.push(prev);
                }
            }
            int_array(dt, vals, validity)
        }
        ColumnCodec::NullSup => {
            let dt = read_type(buf)?;
            let validity = read_bitmap(buf, rows)?;
            macro_rules! sparse {
                ($variant:ident, $default:expr, $read:expr) => {{
                    let mut v = Vec::with_capacity(rows);
                    for i in 0..rows {
                        if validity.get(i) {
                            v.push($read(buf)?);
                        } else {
                            v.push($default);
                        }
                    }
                    Array::$variant(v.into(), validity.into())
                }};
            }
            Ok(match dt {
                DataType::Boolean => sparse!(Boolean, false, |b: &mut Bytes| {
                    if !b.has_remaining() {
                        return Err(truncated());
                    }
                    Ok::<bool, GisError>(b.get_u8() != 0)
                }),
                DataType::Float64 => sparse!(Float64, 0.0, |b: &mut Bytes| {
                    if b.remaining() < 8 {
                        return Err(truncated());
                    }
                    Ok::<f64, GisError>(b.get_f64_le())
                }),
                DataType::Utf8 => sparse!(Utf8, String::new(), get_str),
                DataType::Int64 => sparse!(Int64, 0, get_ivarint),
                DataType::Timestamp => sparse!(Timestamp, 0, get_ivarint),
                DataType::Int32 => sparse!(Int32, 0, |b: &mut Bytes| narrow32(get_ivarint(b)?)),
                DataType::Date => sparse!(Date, 0, |b: &mut Bytes| narrow32(get_ivarint(b)?)),
                DataType::Null => unreachable!("read_type rejects the null type"),
            })
        }
    }
}

// ---- frames ----------------------------------------------------------------

/// Encodes `batch` as a compressed (version-1) frame into `buf`,
/// returning raw/wire sizes and per-column codec counts. Batches over
/// [`MAX_FRAME_ROWS`] take the legacy layout so every frame this
/// function emits is decodable by [`decode_frame`].
pub fn encode_frame_into(buf: &mut BytesMut, batch: &Batch) -> FrameStats {
    if batch.num_rows() > MAX_FRAME_ROWS {
        return encode_legacy_into(buf, batch);
    }
    let start = buf.len();
    let mut stats = FrameStats {
        raw: raw_frame_size(batch),
        ..FrameStats::default()
    };
    buf.put_u8(FRAME_MAGIC);
    buf.put_u8(FRAME_VERSION);
    encode_schema(buf, batch.schema());
    put_uvarint(buf, batch.num_rows() as u64);
    for col in batch.columns() {
        let codec = encode_column(buf, col);
        stats.codecs[codec as usize] += 1;
    }
    stats.wire = buf.len() - start;
    stats
}

/// Encodes a compressed frame, returning the frame and its stats.
pub fn encode_frame(batch: &Batch) -> (Bytes, FrameStats) {
    let mut buf = BytesMut::new();
    let stats = encode_frame_into(&mut buf, batch);
    (buf.freeze(), stats)
}

/// Encodes with the legacy raw layout but reports [`FrameStats`] so
/// call sites meter both modes uniformly (`raw == wire`, no codecs).
pub fn encode_legacy_into(buf: &mut BytesMut, batch: &Batch) -> FrameStats {
    let start = buf.len();
    encode_schema(buf, batch.schema());
    put_uvarint(buf, batch.num_rows() as u64);
    for col in batch.columns() {
        encode_array(buf, col);
    }
    let wire = buf.len() - start;
    FrameStats {
        raw: wire,
        wire,
        codecs: [0; CODEC_COUNT],
    }
}

/// True when `frame` starts with the compressed-frame header.
pub fn is_compressed_frame(frame: &[u8]) -> bool {
    frame.len() >= 2 && frame[0] == FRAME_MAGIC && frame[1] == FRAME_VERSION
}

/// Decodes either a compressed (version-1) or a legacy raw frame —
/// the version-negotiation point: frames from peers that never
/// learned the codecs take the legacy path untouched.
pub fn decode_frame(buf: Bytes) -> Result<Batch> {
    if !is_compressed_frame(&buf) {
        return crate::wire::decode_batch(buf);
    }
    let mut buf = buf;
    buf.advance(2);
    let schema = decode_schema(&mut buf)?;
    let rows = usize::try_from(get_uvarint(&mut buf)?).map_err(|_| truncated())?;
    if rows > MAX_FRAME_ROWS {
        return Err(GisError::Network(format!(
            "frame claims {rows} rows (cap {MAX_FRAME_ROWS})"
        )));
    }
    let mut columns = Vec::with_capacity(schema.len());
    for _ in 0..schema.len() {
        columns.push(decode_column(&mut buf, rows)?);
    }
    if buf.has_remaining() {
        return Err(GisError::Network("trailing bytes after frame".into()));
    }
    Batch::try_new(Arc::new(schema), columns)
        .map_err(|e| GisError::Network(format!("malformed batch on wire: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_batch;
    use gis_types::{Field, Schema};
    use proptest::prelude::*;
    use proptest::strategy::{boxed, BoxedStrategy, Union};

    fn batch_of(fields: Vec<Field>, rows: &[Vec<Value>]) -> Batch {
        Batch::from_rows(Schema::new(fields).into_ref(), rows).unwrap()
    }

    /// Bitwise batch equality: like `PartialEq` but NaN == NaN when
    /// the payload bits match, and -0.0 != 0.0.
    fn assert_bits_eq(a: &Batch, b: &Batch) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for (ca, cb) in a.columns().iter().zip(b.columns().iter()) {
            assert_eq!(ca.data_type(), cb.data_type());
            assert_eq!(ca.validity(), cb.validity());
            match (ca, cb) {
                (Array::Float64(va, m), Array::Float64(vb, _)) => {
                    for i in 0..va.len() {
                        if m.get(i) {
                            assert_eq!(va[i].to_bits(), vb[i].to_bits(), "slot {i}");
                        }
                    }
                }
                _ => assert_eq!(ca, cb),
            }
        }
    }

    fn roundtrip(b: &Batch) -> FrameStats {
        let (frame, stats) = encode_frame(b);
        assert_eq!(stats.wire, frame.len());
        let back = decode_frame(frame).unwrap();
        assert_bits_eq(&back, b);
        stats
    }

    fn int_col(vals: &[Option<i64>]) -> Vec<Vec<Value>> {
        vals.iter()
            .map(|v| vec![v.map_or(Value::Null, Value::Int64)])
            .collect()
    }

    #[test]
    fn each_codec_is_reachable_and_roundtrips() {
        // Dictionary: few distinct strings, no helpful runs.
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| vec![Value::Utf8(format!("region-{}", [0, 2, 1, 3][i % 4]))])
            .collect();
        let stats = roundtrip(&batch_of(vec![Field::new("r", DataType::Utf8)], &rows));
        assert_eq!(stats.codecs[ColumnCodec::Dict as usize], 1, "{stats:?}");

        // RLE: one long constant run.
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|_| vec![Value::Utf8("constant-padding-string".into())])
            .collect();
        let stats = roundtrip(&batch_of(vec![Field::new("c", DataType::Utf8)], &rows));
        assert_eq!(stats.codecs[ColumnCodec::Rle as usize], 1, "{stats:?}");

        // Delta: a sorted walk with small steps but a huge base
        // (varints and dictionaries both lose).
        let rows: Vec<Vec<Value>> = (0..400)
            .map(|i| vec![Value::Int64(1_700_000_000_000_000 + 37 * i as i64)])
            .collect();
        let stats = roundtrip(&batch_of(vec![Field::new("ts", DataType::Int64)], &rows));
        assert_eq!(stats.codecs[ColumnCodec::Delta as usize], 1, "{stats:?}");

        // NullSup: mostly-null floats.
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| {
                vec![if i % 29 == 0 {
                    Value::Float64(i as f64 * 1.7)
                } else {
                    Value::Null
                }]
            })
            .collect();
        let stats = roundtrip(&batch_of(vec![Field::new("f", DataType::Float64)], &rows));
        assert_eq!(stats.codecs[ColumnCodec::NullSup as usize], 1, "{stats:?}");

        // Raw: high-entropy wide integers — 10-byte varints lose to
        // the flat 8-byte layout and nothing repeats.
        let rows = int_col(
            &(0..300)
                .map(|i| Some((i as i64).wrapping_mul(-0x61c8_8646_80b5_83eb)))
                .collect::<Vec<_>>(),
        );
        let stats = roundtrip(&batch_of(vec![Field::new("h", DataType::Int64)], &rows));
        assert_eq!(stats.codecs[ColumnCodec::Raw as usize], 1, "{stats:?}");
    }

    #[test]
    fn compression_beats_raw_on_repetitive_batches() {
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| {
                vec![
                    Value::Int64(i as i64),
                    Value::Utf8(format!("status-{}", i % 3)),
                    Value::Float64(9.99),
                ]
            })
            .collect();
        let b = batch_of(
            vec![
                Field::new("id", DataType::Int64),
                Field::new("status", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ],
            &rows,
        );
        let stats = roundtrip(&b);
        assert_eq!(stats.raw, raw_frame_size(&b));
        assert_eq!(stats.raw, encode_batch(&b).len(), "raw formula is exact");
        assert!(
            stats.wire * 3 < stats.raw,
            "expected 3x on this batch: {stats:?}"
        );
    }

    #[test]
    fn edge_batches_roundtrip() {
        // Empty batch.
        let b = Batch::empty(Schema::new(vec![Field::new("x", DataType::Int32)]).into_ref());
        roundtrip(&b);
        // All-null columns of every type.
        for dt in [
            DataType::Boolean,
            DataType::Int32,
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Date,
            DataType::Timestamp,
        ] {
            let rows: Vec<Vec<Value>> = (0..50).map(|_| vec![Value::Null]).collect();
            roundtrip(&batch_of(vec![Field::new("n", dt)], &rows));
        }
        // Single-value dictionary candidates (constant columns pick
        // RLE over dict, but both must agree on the answer).
        let rows: Vec<Vec<Value>> = (0..10).map(|_| vec![Value::Int32(7)]).collect();
        roundtrip(&batch_of(vec![Field::new("k", DataType::Int32)], &rows));
        // NaN and signed-zero floats survive bitwise.
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Float64(f64::NAN)],
            vec![Value::Float64(-0.0)],
            vec![Value::Float64(0.0)],
            vec![Value::Float64(f64::NAN)],
            vec![Value::Null],
            vec![Value::Float64(f64::INFINITY)],
        ];
        roundtrip(&batch_of(vec![Field::new("f", DataType::Float64)], &rows));
        // Extreme integers through delta's wrapping arithmetic.
        roundtrip(&batch_of(
            vec![Field::new("i", DataType::Int64)],
            &int_col(&[Some(i64::MIN), Some(i64::MAX), None, Some(0), Some(-1)]),
        ));
    }

    #[test]
    fn legacy_frames_still_decode() {
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Int64(i), Value::Utf8(format!("n{i}"))])
            .collect();
        let b = batch_of(
            vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ],
            &rows,
        );
        // A legacy frame can never look compressed...
        let legacy = encode_batch(&b);
        assert!(!is_compressed_frame(&legacy));
        assert_ne!(legacy[0], FRAME_MAGIC);
        // ...and decode_frame negotiates both versions.
        assert_eq!(decode_frame(legacy).unwrap(), b);
        let (compressed, _) = encode_frame(&b);
        assert!(is_compressed_frame(&compressed));
        assert_eq!(decode_frame(compressed).unwrap(), b);
    }

    // ---- hostile frames ----------------------------------------------------

    /// A compressed frame header for one `rows`-row column of `dt`.
    fn frame_header(dt: DataType, rows: u64) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u8(FRAME_MAGIC);
        buf.put_u8(FRAME_VERSION);
        encode_schema(&mut buf, &Schema::new(vec![Field::new("x", dt)]));
        put_uvarint(&mut buf, rows);
        buf
    }

    #[test]
    fn truncated_compressed_frames_error_not_panic() {
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Utf8(format!("cat-{}", i % 3)),
                    Value::Int64(1000 + i),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(0.25)
                    },
                ]
            })
            .collect();
        let b = batch_of(
            vec![
                Field::new("cat", DataType::Utf8),
                Field::new("seq", DataType::Int64),
                Field::new("w", DataType::Float64),
            ],
            &rows,
        );
        let (frame, stats) = encode_frame(&b);
        // The batch exercises several codecs at once.
        assert!(stats.codecs[ColumnCodec::Dict as usize] >= 1, "{stats:?}");
        for cut in 0..frame.len() {
            assert!(decode_frame(frame.slice(0..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_dictionary_frames_rejected() {
        // Out-of-range code: dictionary of 1 entry, codes claim 3.
        let mut buf = frame_header(DataType::Int64, 4);
        buf.put_u8(ColumnCodec::Dict as u8);
        buf.put_u8(type_tag(DataType::Int64));
        buf.put_u8(0x0F); // all 4 slots valid
        put_uvarint(&mut buf, 1); // one entry
        encode_value(&mut buf, &Value::Int64(42));
        buf.put_u8(2); // two-bit codes
        buf.put_u8(0b11_10_01_00); // codes 0,1,2,3 — 1..3 out of range
        let err = decode_frame(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // Absurd code width.
        let mut buf = frame_header(DataType::Int64, 4);
        buf.put_u8(ColumnCodec::Dict as u8);
        buf.put_u8(type_tag(DataType::Int64));
        buf.put_u8(0x0F);
        put_uvarint(&mut buf, 1);
        encode_value(&mut buf, &Value::Int64(42));
        buf.put_u8(63);
        buf.put_slice(&[0u8; 32]);
        assert!(decode_frame(buf.freeze()).is_err());

        // Dictionary bigger than the byte budget (truncated dict).
        let mut buf = frame_header(DataType::Utf8, 8);
        buf.put_u8(ColumnCodec::Dict as u8);
        buf.put_u8(type_tag(DataType::Utf8));
        buf.put_u8(0xFF);
        put_uvarint(&mut buf, 200); // claims 200 entries, has none
        assert!(decode_frame(buf.freeze()).is_err());

        // Dictionary count over the protocol cap.
        let mut buf = frame_header(DataType::Int64, 2);
        buf.put_u8(ColumnCodec::Dict as u8);
        buf.put_u8(type_tag(DataType::Int64));
        buf.put_u8(0x03);
        put_uvarint(&mut buf, 100_000);
        buf.put_slice(&vec![0u8; 200_000]);
        let err = decode_frame(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");

        // Null dictionary entry.
        let mut buf = frame_header(DataType::Int64, 1);
        buf.put_u8(ColumnCodec::Dict as u8);
        buf.put_u8(type_tag(DataType::Int64));
        buf.put_u8(0x01);
        put_uvarint(&mut buf, 1);
        encode_value(&mut buf, &Value::Null);
        buf.put_u8(0);
        assert!(decode_frame(buf.freeze()).is_err());
    }

    #[test]
    fn hostile_run_lengths_rejected() {
        // A run claiming u64::MAX rows must error before allocating.
        let mut buf = frame_header(DataType::Int64, 10);
        buf.put_u8(ColumnCodec::Rle as u8);
        buf.put_u8(type_tag(DataType::Int64));
        put_uvarint(&mut buf, 1); // one run
        put_uvarint(&mut buf, u64::MAX); // of absurd length
        encode_value(&mut buf, &Value::Int64(1));
        let err = decode_frame(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");

        // Runs that cover too few rows.
        let mut buf = frame_header(DataType::Int64, 10);
        buf.put_u8(ColumnCodec::Rle as u8);
        buf.put_u8(type_tag(DataType::Int64));
        put_uvarint(&mut buf, 1);
        put_uvarint(&mut buf, 3);
        encode_value(&mut buf, &Value::Int64(1));
        assert!(decode_frame(buf.freeze()).is_err());

        // A zero-length run.
        let mut buf = frame_header(DataType::Int64, 2);
        buf.put_u8(ColumnCodec::Rle as u8);
        buf.put_u8(type_tag(DataType::Int64));
        put_uvarint(&mut buf, 2);
        put_uvarint(&mut buf, 0);
        encode_value(&mut buf, &Value::Int64(1));
        put_uvarint(&mut buf, 2);
        encode_value(&mut buf, &Value::Int64(1));
        assert!(decode_frame(buf.freeze()).is_err());

        // A run count that cannot fit the remaining bytes.
        let mut buf = frame_header(DataType::Int64, 10);
        buf.put_u8(ColumnCodec::Rle as u8);
        buf.put_u8(type_tag(DataType::Int64));
        put_uvarint(&mut buf, u64::MAX / 2);
        assert!(decode_frame(buf.freeze()).is_err());
    }

    #[test]
    fn hostile_misc_frames_rejected() {
        // Unknown codec tag.
        let mut buf = frame_header(DataType::Int64, 1);
        buf.put_u8(99);
        assert!(decode_frame(buf.freeze()).is_err());

        // Row count over the protocol cap.
        let buf = frame_header(DataType::Int64, (MAX_FRAME_ROWS as u64) + 1);
        let err = decode_frame(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");

        // Delta on a string column.
        let mut buf = frame_header(DataType::Utf8, 1);
        buf.put_u8(ColumnCodec::Delta as u8);
        buf.put_u8(type_tag(DataType::Utf8));
        buf.put_u8(0x01);
        buf.put_u8(0);
        put_ivarint(&mut buf, 0);
        buf.put_u8(0);
        assert!(decode_frame(buf.freeze()).is_err());

        // Delta with an absurd bit width.
        let mut buf = frame_header(DataType::Int64, 4);
        buf.put_u8(ColumnCodec::Delta as u8);
        buf.put_u8(type_tag(DataType::Int64));
        buf.put_u8(0x0F);
        buf.put_u8(0);
        put_ivarint(&mut buf, 0);
        buf.put_u8(200);
        assert!(decode_frame(buf.freeze()).is_err());

        // A 32-bit column whose varint payload overflows i32.
        let mut buf = frame_header(DataType::Int32, 1);
        buf.put_u8(ColumnCodec::NullSup as u8);
        buf.put_u8(type_tag(DataType::Int32));
        buf.put_u8(0x01);
        put_ivarint(&mut buf, i64::MAX / 2);
        assert!(decode_frame(buf.freeze()).is_err());

        // Trailing bytes after a valid frame.
        let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Int64(i)]).collect();
        let (frame, _) = encode_frame(&batch_of(vec![Field::new("x", DataType::Int64)], &rows));
        let mut buf = BytesMut::from(&frame[..]);
        buf.put_u8(0xAB);
        assert!(decode_frame(buf.freeze()).is_err());
    }

    // ---- proptests ---------------------------------------------------------

    fn slot_strategy(dt: DataType) -> BoxedStrategy<Value> {
        match dt {
            DataType::Boolean => boxed(any::<bool>().prop_map(Value::Boolean)),
            DataType::Int32 => boxed(prop_oneof![any::<i32>(), -10i32..10].prop_map(Value::Int32)),
            DataType::Int64 => boxed(
                prop_oneof![any::<i64>(), -10i64..10, Just(i64::MIN), Just(i64::MAX)]
                    .prop_map(Value::Int64),
            ),
            DataType::Float64 => boxed(
                prop_oneof![
                    any::<f64>(),
                    Just(f64::NAN),
                    Just(-0.0),
                    Just(0.0),
                    Just(f64::NEG_INFINITY),
                ]
                .prop_map(Value::Float64),
            ),
            DataType::Utf8 => boxed(
                prop_oneof![".{0,8}", Just(String::new()), Just(String::from("aa"))]
                    .prop_map(Value::Utf8),
            ),
            DataType::Date => boxed(any::<i32>().prop_map(Value::Date)),
            _ => boxed(any::<i64>().prop_map(Value::Timestamp)),
        }
    }

    fn col_strategy(dt: DataType) -> impl Strategy<Value = Vec<Value>> {
        // ~3:1 slot:NULL bias (the shim's oneof is uniform, so the
        // slot arm is repeated) — enough NULLs that nullsup and
        // all-null columns both fire across cases.
        let biased = Union::new(vec![
            slot_strategy(dt),
            slot_strategy(dt),
            slot_strategy(dt),
            boxed(Just(Value::Null)),
        ]);
        proptest::collection::vec(biased, 0..120)
    }

    fn any_dt() -> impl Strategy<Value = DataType> {
        prop_oneof![
            Just(DataType::Boolean),
            Just(DataType::Int32),
            Just(DataType::Int64),
            Just(DataType::Float64),
            Just(DataType::Utf8),
            Just(DataType::Date),
            Just(DataType::Timestamp),
        ]
    }

    proptest! {
        /// Every codec round-trips bit-identically: the selection
        /// rule is free to pick any layout and the answer must not
        /// change. The strategy biases toward repeats and NULLs so
        /// dict/rle/nullsup all fire across cases.
        #[test]
        fn prop_frame_roundtrip(
            dt_col in any_dt().prop_flat_map(|dt| (Just(dt), col_strategy(dt)))
        ) {
            let (dt, col) = dt_col;
            let rows: Vec<Vec<Value>> = col.iter().map(|v| vec![v.clone()]).collect();
            let b = Batch::from_rows(
                Schema::new(vec![Field::new("c", dt)]).into_ref(),
                &rows,
            ).unwrap();
            let (frame, stats) = encode_frame(&b);
            prop_assert_eq!(stats.wire, frame.len());
            let back = decode_frame(frame).unwrap();
            prop_assert_eq!(back.schema(), b.schema());
            for (ca, cb) in back.columns().iter().zip(b.columns().iter()) {
                prop_assert_eq!(
                    format!("{ca:?}"),
                    format!("{cb:?}"),
                    "stats {:?}", stats
                );
            }
        }

        /// Arbitrary bytes never panic the frame decoder.
        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = decode_frame(Bytes::from(bytes.clone()));
            // Also with a valid header stapled on.
            let mut framed = vec![FRAME_MAGIC, FRAME_VERSION];
            framed.extend_from_slice(&bytes);
            let _ = decode_frame(Bytes::from(framed));
        }
    }
}
