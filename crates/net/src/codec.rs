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
//! Each column independently selects the cheapest of five layouts by
//! exact size, ties going to the lower codec tag:
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
//! **The planner quits when it has lost.** Sizes that need no look at
//! value identity come first: raw and nullsup by formula (one length
//! pass for strings), delta from one min/max/zig-zag pass over an
//! integer column. The best of those is a *limit*. One more pass then
//! tracks the two layouts that depend on which values repeat — run
//! boundaries for RLE, a 256-entry open-addressing dictionary keyed by
//! first-occurrence row — and drops each the moment its running size
//! strictly exceeds the limit; when both are gone the pass stops. A
//! running size only grows, so a dropped layout's final size would
//! have exceeded the limit and lost the `(size, tag)` comparison; a
//! layout that could still tie is carried to the end and compared
//! exactly. The choice is therefore the one a full pass over every
//! layout makes, byte for byte (`tests/wire_frames_pinned.rs`). No
//! `Value`, run list or hash map is built on the way: a winning
//! dictionary or run layout is written by reading the column again.
//!
//! Frames are encoded from a *row range* of a batch
//! ([`encode_range_into`]) and decoded by *appending* to one set of
//! column builders per response ([`FrameSink`]); [`encode_frame`] and
//! [`decode_frame`] are the one-frame, one-batch entry points over the
//! same code.
//!
//! Decoders follow the same hostile-frame discipline as
//! `wire::get_count`: every count, width and run length is bounded by
//! the bytes remaining or by [`MAX_FRAME_ROWS`] *before* it sizes an
//! allocation, so truncated dictionaries, out-of-range codes and
//! absurd run lengths error instead of panicking or ballooning.
//! Payload bytes under NULL slots decode to the type's default — the
//! same zeroed representation array builders produce.

use crate::wire::{
    decode_array_into, decode_schema, encode_array, encode_batch_range, encode_schema, expect_type,
    get_count, get_ivarint, get_str, get_uvarint, ivarint_len, put_fixed, put_ivarint, put_str,
    put_uvarint, tag_type, take_bytes, truncated, type_tag, uvarint_len, zigzag, ColumnRange,
    Slots,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gis_types::{
    ArrayBuilder, Batch, Bitmap, DataType, GisError, Result, Schema, SchemaRef, ValuesMut,
};
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
    /// Frames these stats cover: 1 from an encode, the sum after
    /// [`FrameStats::absorb`].
    pub frames: u32,
    /// Columns per codec, indexed by codec tag.
    pub codecs: [u32; CODEC_COUNT],
}

impl FrameStats {
    /// Merges another frame's stats into this one (per-exchange
    /// aggregation for the `wire[...]` span).
    pub fn absorb(&mut self, other: &FrameStats) {
        self.raw += other.raw;
        self.wire += other.wire;
        self.frames += other.frames;
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

    /// Records the frames `stats` covers (one frame's stats, or an
    /// exchange's absorbed total).
    pub fn record(&self, stats: &FrameStats) {
        self.raw_bytes
            .fetch_add(stats.raw as u64, Ordering::Relaxed);
        self.wire_bytes
            .fetch_add(stats.wire as u64, Ordering::Relaxed);
        self.frames
            .fetch_add(u64::from(stats.frames), Ordering::Relaxed);
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

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Bytes of the schema block every frame layout opens with.
fn schema_size(batch: &Batch) -> usize {
    let schema = batch.schema();
    let mut size = uvarint_len(schema.len() as u64);
    for f in schema.fields() {
        size += uvarint_len(f.name.len() as u64) + f.name.len() + 3;
        if let Some(q) = &f.qualifier {
            size += uvarint_len(q.len() as u64) + q.len();
        }
    }
    size
}

/// Exact length of the legacy encoding of a whole batch — what the
/// wire *would* have carried uncompressed. Computed by formula (the
/// column planner's own raw bound) so the raw side of every
/// `raw/sent` ratio costs no second encode.
pub fn raw_frame_size(batch: &Batch) -> usize {
    let rows = batch.num_rows();
    let columns: usize = batch
        .columns()
        .iter()
        .map(|a| Bounds::of(&ColumnRange::new(a, 0, rows)).raw)
        .sum();
    schema_size(batch) + uvarint_len(rows as u64) + columns
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

/// Appends `n` values of `width` bits each, LSB-first: the run is sized
/// once and filled a 64-bit word at a time.
fn pack_words(buf: &mut BytesMut, n: usize, width: u8, value: impl Fn(usize) -> u64) {
    if width == 0 {
        return;
    }
    let start = buf.len();
    buf.resize(start + packed_len(n, width), 0);
    let out = &mut buf[start..];
    let mask = width_mask(width);
    let (mut acc, mut nbits, mut pos) = (0u128, 0u32, 0usize);
    for i in 0..n {
        acc |= u128::from(value(i) & mask) << nbits;
        nbits += u32::from(width);
        if nbits >= 64 {
            out[pos..pos + 8].copy_from_slice(&(acc as u64).to_le_bytes());
            pos += 8;
            acc >>= 64;
            nbits -= 64;
        }
    }
    let tail = (acc as u64).to_le_bytes();
    let left = out.len() - pos;
    out[pos..].copy_from_slice(&tail[..left]);
}

/// Calls `each(i, value)` for the `n` `width`-bit values of a packed
/// run whose length was checked against `packed_len(n, width)`.
fn unpack_words(
    packed: &[u8],
    n: usize,
    width: u8,
    mut each: impl FnMut(usize, u64) -> Result<()>,
) -> Result<()> {
    if width == 0 {
        return (0..n).try_for_each(|i| each(i, 0));
    }
    let mask = width_mask(width);
    let mut words = packed.chunks(8);
    let (mut acc, mut nbits) = (0u128, 0u32);
    for i in 0..n {
        if nbits < u32::from(width) {
            // The length check guarantees a next chunk; its last one
            // may be short and reads as zero-padded.
            let chunk = words.next().unwrap_or_default();
            let word = <[u8; 8]>::try_from(chunk).unwrap_or_else(|_| {
                let mut padded = [0u8; 8];
                padded[..chunk.len()].copy_from_slice(chunk);
                padded
            });
            acc |= u128::from(u64::from_le_bytes(word)) << nbits;
            nbits += 64;
        }
        each(i, acc as u64 & mask)?;
        acc >>= width;
        nbits -= u32::from(width);
    }
    Ok(())
}

// ---- slots -----------------------------------------------------------------

/// One non-NULL slot in the form the codecs compare, size and ship:
/// integers widened to `i64`, floats as their bit pattern (so `-0.0`
/// and NaN payloads stay distinct), strings borrowed.
trait Slot: Copy + PartialEq {
    /// Bytes of the value's payload (no type tag).
    fn payload_len(self) -> usize;
    /// Appends the payload.
    fn put(self, buf: &mut BytesMut);
    /// A well-mixed 64-bit hash (the dictionary takes its top bits).
    fn hash(self) -> u64;
}

/// Fibonacci hashing: the top bits of the product are well mixed.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Slot for bool {
    fn payload_len(self) -> usize {
        1
    }
    fn put(self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(self));
    }
    fn hash(self) -> u64 {
        u64::from(self).wrapping_mul(HASH_MUL)
    }
}

impl Slot for i64 {
    fn payload_len(self) -> usize {
        ivarint_len(self)
    }
    fn put(self, buf: &mut BytesMut) {
        put_ivarint(buf, self);
    }
    fn hash(self) -> u64 {
        (self as u64).wrapping_mul(HASH_MUL)
    }
}

/// A float slot by bit pattern.
#[derive(Clone, Copy, PartialEq)]
struct Bits(u64);

impl Slot for Bits {
    fn payload_len(self) -> usize {
        8
    }
    fn put(self, buf: &mut BytesMut) {
        buf.put_u64_le(self.0);
    }
    fn hash(self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(HASH_MUL)
    }
}

impl Slot for &str {
    fn payload_len(self) -> usize {
        uvarint_len(self.len() as u64) + self.len()
    }
    fn put(self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn hash(self) -> u64 {
        gis_types::keys::fold_bytes(0, self.as_bytes())
    }
}

/// A typed run of slots the planner and encoders are generic over.
trait SlotSource: Copy {
    type S: Slot;
    fn at(self, i: usize) -> Self::S;
}

impl SlotSource for &[bool] {
    type S = bool;
    fn at(self, i: usize) -> bool {
        self[i]
    }
}

impl SlotSource for &[i32] {
    type S = i64;
    fn at(self, i: usize) -> i64 {
        i64::from(self[i])
    }
}

impl SlotSource for &[i64] {
    type S = i64;
    fn at(self, i: usize) -> i64 {
        self[i]
    }
}

impl SlotSource for &[f64] {
    type S = Bits;
    fn at(self, i: usize) -> Bits {
        Bits(self[i].to_bits())
    }
}

impl<'a> SlotSource for &'a [String] {
    type S = &'a str;
    fn at(self, i: usize) -> &'a str {
        &self[i]
    }
}

/// Runs `$body` with `$v` bound to the typed slice inside `$slots`.
macro_rules! with_slots {
    ($slots:expr, |$v:ident| $body:expr) => {
        match $slots {
            Slots::Boolean($v) => $body,
            Slots::Int32($v) => $body,
            Slots::Int64($v) => $body,
            Slots::Float64($v) => $body,
            Slots::Utf8($v) => $body,
        }
    };
}

// ---- column plans ----------------------------------------------------------

/// Frame-of-reference parameters: mode 0 packs `v - base` (base = the
/// column minimum); mode 1 packs zigzag deltas between consecutive
/// valid slots (NULLs carry the previous value, and the first valid
/// slot's delta from `base` is zero). All arithmetic wraps, and the
/// decoder wraps identically, so extreme ranges round-trip.
#[derive(Debug, Clone, Copy, Default)]
struct DeltaPlan {
    mode: u8,
    base: i64,
    width: u8,
}

/// The layouts whose exact size needs no look at value *identity*:
/// raw and null-suppressed by formula (one length pass for strings),
/// delta from the integer min/max/zig-zag pass.
struct Bounds {
    raw: usize,
    nullsup: usize,
    delta: Option<(DeltaPlan, usize)>,
}

impl Bounds {
    fn of(col: &ColumnRange<'_>) -> Bounds {
        let n = col.len();
        let bitmap = n.div_ceil(8);
        let valid = if col.all_valid {
            n
        } else {
            col.validity.count_set()
        };
        let header = 1 + uvarint_len(n as u64) + bitmap;
        let fixed = |width: usize| Bounds {
            raw: header + width * n,
            nullsup: 1 + bitmap + width * valid,
            delta: None,
        };
        let ints = |width: usize, (plan, varints): (DeltaPlan, usize)| Bounds {
            raw: header + width * n,
            nullsup: 1 + bitmap + varints,
            delta: Some((
                plan,
                1 + bitmap + 1 + ivarint_len(plan.base) + 1 + packed_len(n, plan.width),
            )),
        };
        match col.slots {
            Slots::Boolean(_) => fixed(1),
            Slots::Float64(_) => fixed(8),
            Slots::Int32(v) => ints(4, int_bounds(v, col)),
            Slots::Int64(v) => ints(8, int_bounds(v, col)),
            Slots::Utf8(v) => {
                let payload: usize = (0..n)
                    .filter(|&i| col.is_valid(i))
                    .map(|i| v[i].as_str().payload_len())
                    .sum();
                Bounds {
                    // A NULL string still ships its zero length byte.
                    raw: header + payload + (n - valid),
                    nullsup: 1 + bitmap + payload,
                    delta: None,
                }
            }
        }
    }
}

/// One pass over an integer column's valid slots: the delta plan and
/// the total varint payload (the null-suppressed layout's body).
fn int_bounds<C: SlotSource<S = i64>>(v: C, col: &ColumnRange<'_>) -> (DeltaPlan, usize) {
    let mut valid = (0..col.len()).filter(|&i| col.is_valid(i)).map(|i| v.at(i));
    let Some(first) = valid.next() else {
        return (DeltaPlan::default(), 0);
    };
    let (mut min, mut max, mut prev) = (first, first, first);
    let mut max_zz = 0u64;
    let mut varints = ivarint_len(first);
    for x in valid {
        min = min.min(x);
        max = max.max(x);
        max_zz = max_zz.max(zigzag(x.wrapping_sub(prev)));
        varints += ivarint_len(x);
        prev = x;
    }
    let for_width = bits_for(max.wrapping_sub(min) as u64);
    let delta_width = bits_for(max_zz);
    let plan = if delta_width < for_width {
        DeltaPlan {
            mode: 1,
            base: first,
            width: delta_width,
        }
    } else {
        DeltaPlan {
            mode: 0,
            base: min,
            width: for_width,
        }
    };
    (plan, varints)
}

/// Open-addressing slots of the dictionary table: twice the entry
/// cap, so probes stay short.
const DICT_SLOTS: usize = 2 * DICT_MAX;

/// The planner's per-frame scratch: a fixed-capacity first-occurrence
/// dictionary (an entry is the *row* that introduced it, so no value
/// is copied or boxed) and the code each row got while the dictionary
/// layout was still in the race.
struct DictScratch {
    /// `entry + 1` per table slot, 0 = empty.
    index: [u16; DICT_SLOTS],
    /// Row of first occurrence per entry, in entry order.
    first: [u32; DICT_MAX],
    len: usize,
    codes: Vec<u8>,
}

impl DictScratch {
    fn new() -> DictScratch {
        DictScratch {
            index: [0; DICT_SLOTS],
            first: [0; DICT_MAX],
            len: 0,
            codes: Vec::new(),
        }
    }

    fn reset(&mut self, rows: usize) {
        self.index = [0; DICT_SLOTS];
        self.len = 0;
        if self.codes.len() < rows {
            self.codes.resize(rows, 0);
        }
    }

    /// The code of `key` (the slot at `row`), entered as a new entry
    /// when unseen: `(code, new)`, or `None` when that would be entry
    /// number `DICT_MAX + 1`.
    #[inline]
    fn code<C: SlotSource>(&mut self, v: C, row: usize, key: C::S) -> Option<(u8, bool)> {
        let mut slot = (key.hash() >> (64 - DICT_SLOTS.trailing_zeros())) as usize;
        loop {
            match self.index[slot] {
                0 => {
                    if self.len == DICT_MAX {
                        return None;
                    }
                    self.first[self.len] = row as u32;
                    self.len += 1;
                    self.index[slot] = self.len as u16;
                    return Some(((self.len - 1) as u8, true));
                }
                e => {
                    let entry = usize::from(e) - 1;
                    if v.at(self.first[entry] as usize) == key {
                        return Some((entry as u8, false));
                    }
                    slot = (slot + 1) % DICT_SLOTS;
                }
            }
        }
    }
}

/// The one pass that looks at value identity: run boundaries (RLE)
/// and the first-occurrence dictionary, each **abandoned the moment
/// its running size strictly exceeds `limit`** — the best size already
/// known. Both running sizes only grow, so an abandoned layout's final
/// size exceeds `limit` too and could not have been chosen; a layout
/// that *ties* `limit` is carried to the end and compared exactly.
/// Returns `(size, runs)` for RLE and the size of the dictionary
/// layout (its entries and codes stay in `dict`), where still in the
/// race.
fn scan_runs_and_dict<C: SlotSource>(
    v: C,
    col: &ColumnRange<'_>,
    limit: usize,
    dict: &mut DictScratch,
) -> (Option<(usize, usize)>, Option<usize>) {
    let n = col.len();
    let bitmap = n.div_ceil(8);
    dict.reset(n);
    let run_cost =
        |len: u64, value: Option<C::S>| uvarint_len(len) + value.map_or(1, |s| 1 + s.payload_len());
    let rle_size = |runs: usize, body: usize| 1 + uvarint_len(runs as u64) + body;
    let dict_size = |entries: usize, payload: usize| {
        let width = bits_for(entries as u64 - 1);
        1 + bitmap + uvarint_len(entries as u64) + payload + 1 + packed_len(n, width)
    };
    let (mut rle_alive, mut dict_alive) = (true, true);
    let (mut runs, mut rle_body) = (0usize, 0usize);
    let (mut run_value, mut run_len): (Option<C::S>, u64) = (None, 0);
    let mut dict_payload = 0usize;
    for i in 0..n {
        let slot = col.is_valid(i).then(|| v.at(i));
        if rle_alive {
            if run_len > 0 && slot == run_value {
                run_len += 1;
            } else {
                if run_len > 0 {
                    runs += 1;
                    rle_body += run_cost(run_len, run_value);
                    rle_alive = rle_size(runs, rle_body) <= limit;
                }
                run_value = slot;
                run_len = 1;
            }
        }
        if dict_alive {
            match slot {
                None => dict.codes[i] = 0,
                Some(key) => match dict.code(v, i, key) {
                    None => dict_alive = false,
                    Some((code, new)) => {
                        dict.codes[i] = code;
                        if new {
                            dict_payload += 1 + key.payload_len();
                            dict_alive = dict_size(dict.len, dict_payload) <= limit;
                        }
                    }
                },
            }
        }
        if !rle_alive && !dict_alive {
            break;
        }
    }
    let rle = rle_alive.then(|| {
        if run_len > 0 {
            runs += 1;
            rle_body += run_cost(run_len, run_value);
        }
        (rle_size(runs, rle_body), runs)
    });
    // A column with no valid slot has no dictionary layout.
    let coded = (dict_alive && dict.len > 0).then(|| dict_size(dict.len, dict_payload));
    (rle, coded)
}

/// The chosen layout and what its encoder needs.
struct Plan {
    codec: ColumnCodec,
    /// Size of the raw layout (the frame's `raw` ledger).
    raw: usize,
    delta: DeltaPlan,
    runs: usize,
}

/// Picks the cheapest layout by `(size, codec tag)`: the cheap bounds
/// first, then the early-exit pass for the other two.
fn plan_column(col: &ColumnRange<'_>, dict: &mut DictScratch) -> Plan {
    let bounds = Bounds::of(col);
    let mut best = (bounds.raw, ColumnCodec::Raw);
    let mut consider = |size: usize, codec: ColumnCodec| {
        if (size, codec) < best {
            best = (size, codec);
        }
        best.0
    };
    consider(bounds.nullsup, ColumnCodec::NullSup);
    let (delta, delta_size) = bounds.delta.unwrap_or((DeltaPlan::default(), usize::MAX));
    let limit = consider(delta_size, ColumnCodec::Delta);
    let (rle, coded) = with_slots!(col.slots, |v| scan_runs_and_dict(v, col, limit, dict));
    let (rle_size, runs) = rle.unwrap_or((usize::MAX, 0));
    consider(rle_size, ColumnCodec::Rle);
    consider(coded.unwrap_or(usize::MAX), ColumnCodec::Dict);
    Plan {
        codec: best.1,
        raw: bounds.raw,
        delta,
        runs,
    }
}

// ---- column encode ---------------------------------------------------------

/// Type tag + payload: the wire form of one dictionary entry or run
/// value (`encode_value`'s layout, without building a `Value`).
fn put_value<S: Slot>(buf: &mut BytesMut, tag: u8, slot: S) {
    buf.put_u8(tag);
    slot.put(buf);
}

fn encode_dict<C: SlotSource>(buf: &mut BytesMut, v: C, n: usize, tag: u8, dict: &DictScratch) {
    put_uvarint(buf, dict.len as u64);
    for &row in &dict.first[..dict.len] {
        put_value(buf, tag, v.at(row as usize));
    }
    let width = bits_for(dict.len as u64 - 1);
    buf.put_u8(width);
    pack_words(buf, n, width, |i| u64::from(dict.codes[i]));
}

fn encode_rle<C: SlotSource>(
    buf: &mut BytesMut,
    v: C,
    col: &ColumnRange<'_>,
    tag: u8,
    runs: usize,
) {
    put_uvarint(buf, runs as u64);
    let mut put_run = |len: u64, value: Option<C::S>| {
        put_uvarint(buf, len);
        match value {
            Some(s) => put_value(buf, tag, s),
            None => buf.put_u8(type_tag(DataType::Null)),
        }
    };
    let (mut run_value, mut run_len): (Option<C::S>, u64) = (None, 0);
    for i in 0..col.len() {
        let slot = col.is_valid(i).then(|| v.at(i));
        if run_len > 0 && slot == run_value {
            run_len += 1;
        } else {
            if run_len > 0 {
                put_run(run_len, run_value);
            }
            run_value = slot;
            run_len = 1;
        }
    }
    if run_len > 0 {
        put_run(run_len, run_value);
    }
}

fn encode_delta<C: SlotSource<S = i64>>(
    buf: &mut BytesMut,
    v: C,
    col: &ColumnRange<'_>,
    plan: DeltaPlan,
) {
    buf.put_u8(plan.mode);
    put_ivarint(buf, plan.base);
    buf.put_u8(plan.width);
    if plan.mode == 0 {
        pack_words(buf, col.len(), plan.width, |i| {
            if col.is_valid(i) {
                v.at(i).wrapping_sub(plan.base) as u64
            } else {
                0
            }
        });
    } else {
        let prev = std::cell::Cell::new(plan.base);
        pack_words(buf, col.len(), plan.width, |i| {
            if col.is_valid(i) {
                let x = v.at(i);
                zigzag(x.wrapping_sub(prev.replace(x)))
            } else {
                0
            }
        });
    }
}

fn encode_nullsup<C: SlotSource>(buf: &mut BytesMut, v: C, col: &ColumnRange<'_>) {
    for i in (0..col.len()).filter(|&i| col.is_valid(i)) {
        v.at(i).put(buf);
    }
}

fn encode_column(buf: &mut BytesMut, col: &ColumnRange<'_>, dict: &mut DictScratch) -> Plan {
    let plan = plan_column(col, dict);
    let tag = type_tag(col.data_type);
    buf.put_u8(plan.codec as u8);
    if plan.codec == ColumnCodec::Raw {
        encode_array(buf, col);
        return plan;
    }
    buf.put_u8(tag);
    match plan.codec {
        ColumnCodec::Raw => unreachable!("returned above"),
        ColumnCodec::Dict => {
            buf.put_slice(col.validity.as_bytes());
            with_slots!(col.slots, |v| encode_dict(buf, v, col.len(), tag, dict));
        }
        ColumnCodec::Rle => {
            with_slots!(col.slots, |v| encode_rle(buf, v, col, tag, plan.runs));
        }
        ColumnCodec::Delta => {
            buf.put_slice(col.validity.as_bytes());
            match col.slots {
                Slots::Int32(v) => encode_delta(buf, v, col, plan.delta),
                Slots::Int64(v) => encode_delta(buf, v, col, plan.delta),
                _ => unreachable!("only integer columns have a delta bound"),
            }
        }
        ColumnCodec::NullSup => {
            buf.put_slice(col.validity.as_bytes());
            match col.slots {
                // Fixed-width, nothing suppressed: one sized copy.
                Slots::Float64(v) if col.all_valid => put_fixed(buf, v, f64::to_le_bytes),
                Slots::Boolean(v) if col.all_valid => put_fixed(buf, v, |b| [u8::from(b)]),
                slots => with_slots!(slots, |v| encode_nullsup(buf, v, col)),
            }
        }
    }
    plan
}

// ---- column decode ---------------------------------------------------------

fn read_type(buf: &mut &[u8]) -> Result<DataType> {
    if buf.is_empty() {
        return Err(truncated());
    }
    let dt = tag_type(buf.get_u8())?;
    if dt == DataType::Null {
        return Err(GisError::Network("null-typed column on wire".into()));
    }
    Ok(dt)
}

fn narrow32(v: i64) -> Result<i32> {
    i32::try_from(v).map_err(|_| GisError::Network("32-bit column value overflows".into()))
}

/// The validity bitmap of a `rows`-row column, as frame bytes.
fn read_bitmap<'a>(buf: &mut &'a [u8], rows: usize) -> Result<&'a [u8]> {
    take_bytes(buf, rows.div_ceil(8))
}

#[inline]
fn bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i >> 3] & (1 << (i & 7)) != 0
}

/// Set bits among the first `rows` of a packed bitmap.
fn count_bits(bitmap: &[u8], rows: usize) -> usize {
    let whole: usize = bitmap[..rows / 8]
        .iter()
        .map(|b| b.count_ones() as usize)
        .sum();
    match rows % 8 {
        0 => whole,
        rem => whole + (bitmap[rows / 8] & ((1u8 << rem) - 1)).count_ones() as usize,
    }
}

/// A value payload as the decoders read it into a column buffer.
trait Payload: Clone + Default {
    fn read(buf: &mut &[u8]) -> Result<Self>;
}

impl Payload for bool {
    fn read(buf: &mut &[u8]) -> Result<bool> {
        Ok(take_bytes(buf, 1)?[0] != 0)
    }
}

impl Payload for f64 {
    fn read(buf: &mut &[u8]) -> Result<f64> {
        let raw = take_bytes(buf, 8)?;
        Ok(f64::from_le_bytes(raw.try_into().expect("eight bytes")))
    }
}

impl Payload for i64 {
    fn read(buf: &mut &[u8]) -> Result<i64> {
        get_ivarint(buf)
    }
}

impl Payload for i32 {
    fn read(buf: &mut &[u8]) -> Result<i32> {
        narrow32(get_ivarint(buf)?)
    }
}

impl Payload for String {
    fn read(buf: &mut &[u8]) -> Result<String> {
        get_str(buf)
    }
}

/// Reads one tagged value of the column's type: `None` for the NULL
/// tag, an error for any other type.
fn read_tagged<T: Payload>(buf: &mut &[u8], tag: u8, what: &str) -> Result<Option<T>> {
    match take_bytes(buf, 1)?[0] {
        0 => Ok(None),
        t if t == tag => T::read(buf).map(Some),
        _ => Err(GisError::Network(format!("{what} type mismatch"))),
    }
}

fn decode_dict<T: Payload>(
    buf: &mut &[u8],
    rows: usize,
    tag: u8,
    out: &mut Vec<T>,
    validity: &mut Bitmap,
) -> Result<()> {
    let bitmap = read_bitmap(buf, rows)?;
    // Each dictionary entry costs at least its one-byte tag.
    let d = get_count(buf, 1)?;
    if d > DICT_MAX {
        return Err(GisError::Network(format!(
            "dictionary of {d} entries exceeds cap {DICT_MAX}"
        )));
    }
    if d == 0 && count_bits(bitmap, rows) > 0 {
        return Err(GisError::Network(
            "empty dictionary with valid slots".into(),
        ));
    }
    let mut entries: Vec<T> = Vec::with_capacity(d);
    for _ in 0..d {
        let entry = read_tagged(buf, tag, "dictionary entry")?
            .ok_or_else(|| GisError::Network("null dictionary entry".into()))?;
        entries.push(entry);
    }
    let width = take_bytes(buf, 1)?[0];
    if width > 16 {
        return Err(GisError::Network(format!(
            "absurd dictionary code width {width}"
        )));
    }
    let packed = take_bytes(buf, packed_len(rows, width))?;
    out.reserve(rows);
    unpack_words(packed, rows, width, |i, code| {
        out.push(if bit(bitmap, i) {
            entries.get(code as usize).cloned().ok_or_else(|| {
                GisError::Network(format!("dictionary code {code} out of range ({d})"))
            })?
        } else {
            T::default()
        });
        Ok(())
    })?;
    validity.extend_from_packed(bitmap, rows);
    Ok(())
}

fn decode_rle<T: Payload>(
    buf: &mut &[u8],
    rows: usize,
    tag: u8,
    out: &mut Vec<T>,
    validity: &mut Bitmap,
) -> Result<()> {
    // Each run costs at least two bytes: length + value tag.
    let n_runs = get_count(buf, 2)?;
    let mut covered = 0usize;
    for _ in 0..n_runs {
        let run = usize::try_from(get_uvarint(buf)?).map_err(|_| truncated())?;
        if run == 0 {
            return Err(GisError::Network("zero-length run on wire".into()));
        }
        if run > rows - covered {
            return Err(GisError::Network(format!(
                "run of {run} overruns {rows}-row column"
            )));
        }
        let value: Option<T> = read_tagged(buf, tag, "run value")?;
        validity.extend_constant(run, value.is_some());
        out.resize(out.len() + run, value.unwrap_or_default());
        covered += run;
    }
    if covered != rows {
        return Err(GisError::Network(format!(
            "runs cover {covered} of {rows} rows"
        )));
    }
    Ok(())
}

fn decode_delta<T: Default>(
    buf: &mut &[u8],
    rows: usize,
    out: &mut Vec<T>,
    validity: &mut Bitmap,
    narrow: impl Fn(i64) -> Result<T>,
) -> Result<()> {
    let bitmap = read_bitmap(buf, rows)?;
    let mode = take_bytes(buf, 1)?[0];
    if mode > 1 {
        return Err(GisError::Network(format!("unknown delta mode {mode}")));
    }
    if buf.is_empty() {
        return Err(truncated());
    }
    let base = get_ivarint(buf)?;
    let width = take_bytes(buf, 1)?[0];
    if width > 64 {
        return Err(GisError::Network(format!("absurd bit width {width}")));
    }
    let packed = take_bytes(buf, packed_len(rows, width))?;
    out.reserve(rows);
    let mut prev = base;
    unpack_words(packed, rows, width, |i, u| {
        out.push(if !bit(bitmap, i) {
            T::default()
        } else if mode == 0 {
            narrow(base.wrapping_add(u as i64))?
        } else {
            prev = prev.wrapping_add(unzigzag(u));
            narrow(prev)?
        });
        Ok(())
    })?;
    validity.extend_from_packed(bitmap, rows);
    Ok(())
}

fn decode_nullsup<T: Payload>(
    buf: &mut &[u8],
    rows: usize,
    out: &mut Vec<T>,
    validity: &mut Bitmap,
) -> Result<()> {
    let bitmap = read_bitmap(buf, rows)?;
    out.reserve(rows);
    for i in 0..rows {
        out.push(if bit(bitmap, i) {
            T::read(buf)?
        } else {
            T::default()
        });
    }
    validity.extend_from_packed(bitmap, rows);
    Ok(())
}

/// Decodes one `rows`-row column by appending it to `out`. On error
/// `out` may hold part of the column; [`FrameSink::append`] truncates.
fn decode_column_into(
    buf: &mut &[u8],
    codec: ColumnCodec,
    rows: usize,
    out: &mut ArrayBuilder,
) -> Result<()> {
    if codec == ColumnCodec::Raw {
        let len = decode_array_into(buf, out)?;
        if len != rows {
            return Err(GisError::Network(format!(
                "column length {len} does not match row count {rows}"
            )));
        }
        return Ok(());
    }
    let dt = read_type(buf)?;
    expect_type(dt, out)?;
    let tag = type_tag(dt);
    let (values, validity) = out.parts_mut();
    macro_rules! typed {
        ($decode:ident $(, $extra:expr)*) => {
            match values {
                ValuesMut::Boolean(v) => $decode(buf, rows $(, $extra)*, v, validity),
                ValuesMut::Int32(v) => $decode(buf, rows $(, $extra)*, v, validity),
                ValuesMut::Int64(v) => $decode(buf, rows $(, $extra)*, v, validity),
                ValuesMut::Float64(v) => $decode(buf, rows $(, $extra)*, v, validity),
                ValuesMut::Utf8(v) => $decode(buf, rows $(, $extra)*, v, validity),
            }
        };
    }
    match codec {
        ColumnCodec::Raw => unreachable!("returned above"),
        ColumnCodec::Dict => typed!(decode_dict, tag),
        ColumnCodec::Rle => typed!(decode_rle, tag),
        ColumnCodec::NullSup => typed!(decode_nullsup),
        ColumnCodec::Delta => match values {
            ValuesMut::Int32(v) => decode_delta(buf, rows, v, validity, narrow32),
            ValuesMut::Int64(v) => decode_delta(buf, rows, v, validity, Ok),
            _ => Err(GisError::Network("delta codec on non-integer type".into())),
        },
    }
}

// ---- frames ----------------------------------------------------------------

/// Encodes rows `[offset, offset + len)` of `batch` as one frame into
/// `buf`, straight from the batch's buffers (no `slice` copy), and
/// returns raw/wire sizes and per-column codec counts. With
/// `compress` the frame is a version-1 frame of adaptively coded
/// columns; without — or past [`MAX_FRAME_ROWS`], so that every frame
/// this function emits is decodable by [`decode_frame`] — it takes the
/// legacy raw layout (`raw == wire`, no codecs). Panics when the range
/// reaches past the batch, like slicing.
pub fn encode_range_into(
    buf: &mut BytesMut,
    batch: &Batch,
    offset: usize,
    len: usize,
    compress: bool,
) -> FrameStats {
    let start = buf.len();
    let mut stats = FrameStats {
        frames: 1,
        ..FrameStats::default()
    };
    if !compress || len > MAX_FRAME_ROWS {
        encode_batch_range(buf, batch, offset, len);
        stats.wire = buf.len() - start;
        stats.raw = stats.wire;
        return stats;
    }
    buf.put_u8(FRAME_MAGIC);
    buf.put_u8(FRAME_VERSION);
    encode_schema(buf, batch.schema());
    put_uvarint(buf, len as u64);
    stats.raw = buf.len() - start - 2;
    let mut dict = DictScratch::new();
    for col in batch.columns() {
        let plan = encode_column(buf, &ColumnRange::new(col, offset, len), &mut dict);
        stats.raw += plan.raw;
        stats.codecs[plan.codec as usize] += 1;
    }
    stats.wire = buf.len() - start;
    stats
}

/// [`encode_range_into`] over the whole batch, compressed.
pub fn encode_frame_into(buf: &mut BytesMut, batch: &Batch) -> FrameStats {
    encode_range_into(buf, batch, 0, batch.num_rows(), true)
}

/// Encodes a compressed frame, returning the frame and its stats.
pub fn encode_frame(batch: &Batch) -> (Bytes, FrameStats) {
    let mut buf = BytesMut::new();
    let stats = encode_frame_into(&mut buf, batch);
    (buf.freeze(), stats)
}

/// True when `frame` starts with the compressed-frame header.
pub fn is_compressed_frame(frame: &[u8]) -> bool {
    frame.len() >= 2 && frame[0] == FRAME_MAGIC && frame[1] == FRAME_VERSION
}

/// The output of one fetch: one set of column builders that every
/// frame of the response is decoded *into*, so a cell is written once
/// — there is no batch per frame and no concatenation afterwards.
///
/// [`FrameSink::append`] is all-or-nothing: a frame that fails to
/// decode leaves the sink exactly as it was.
#[derive(Debug)]
pub struct FrameSink {
    schema: SchemaRef,
    columns: Vec<ArrayBuilder>,
    rows: usize,
}

impl FrameSink {
    /// An empty sink for responses of `schema`: every frame must
    /// carry that many columns of those types.
    pub fn new(schema: SchemaRef) -> FrameSink {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ArrayBuilder::new(f.data_type))
            .collect();
        FrameSink {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Rows appended so far.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Decodes one frame — compressed (version 1) or legacy raw, told
    /// apart by the first bytes — onto the end of the sink and returns
    /// its row count.
    pub fn append(&mut self, frame: &[u8]) -> Result<usize> {
        let compressed = is_compressed_frame(frame);
        let mut buf = if compressed { &frame[2..] } else { frame };
        let appended = decode_schema(&mut buf)
            .and_then(|schema| self.expect_schema(&schema))
            .and_then(|()| self.append_columns(&mut buf, compressed));
        if appended.is_err() {
            for column in &mut self.columns {
                column.truncate(self.rows);
            }
        }
        appended
    }

    fn expect_schema(&self, frame: &Schema) -> Result<()> {
        if frame.len() != self.columns.len() {
            return Err(GisError::Network(format!(
                "frame of {} columns where {} were expected",
                frame.len(),
                self.columns.len()
            )));
        }
        frame
            .fields()
            .iter()
            .zip(&self.columns)
            .try_for_each(|(f, column)| expect_type(f.data_type, column))
    }

    /// Row count + columns + end-of-frame check; may leave a partial
    /// append behind on error.
    fn append_columns(&mut self, buf: &mut &[u8], compressed: bool) -> Result<usize> {
        let rows = usize::try_from(get_uvarint(buf)?).map_err(|_| truncated())?;
        if compressed && rows > MAX_FRAME_ROWS {
            return Err(GisError::Network(format!(
                "frame claims {rows} rows (cap {MAX_FRAME_ROWS})"
            )));
        }
        for column in &mut self.columns {
            let codec = if compressed {
                ColumnCodec::from_tag(take_bytes(buf, 1)?[0])?
            } else {
                ColumnCodec::Raw
            };
            decode_column_into(buf, codec, rows, column)?;
        }
        if !buf.is_empty() {
            return Err(GisError::Network("trailing bytes after frame".into()));
        }
        self.rows += rows;
        Ok(rows)
    }

    /// The appended rows as one batch of the sink's schema.
    pub fn finish(self) -> Result<Batch> {
        let columns = self.columns.into_iter().map(ArrayBuilder::finish).collect();
        Batch::try_new(self.schema, columns)
            .map_err(|e| GisError::Network(format!("malformed batch on wire: {e}")))
    }
}

/// Decodes either a compressed (version-1) or a legacy raw frame —
/// the version-negotiation point: frames from peers that never
/// learned the codecs take the legacy path untouched.
pub fn decode_frame(buf: Bytes) -> Result<Batch> {
    decode_frame_as(&buf, is_compressed_frame(&buf))
}

/// One frame into a batch of the frame's own schema.
pub(crate) fn decode_frame_as(frame: &[u8], compressed: bool) -> Result<Batch> {
    let mut buf = if compressed { &frame[2..] } else { frame };
    let schema = decode_schema(&mut buf)?;
    let mut sink = FrameSink::new(Arc::new(schema));
    sink.append_columns(&mut buf, compressed)?;
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_batch, encode_value};
    use gis_types::{Array, Field, Value};
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
