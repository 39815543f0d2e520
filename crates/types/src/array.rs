//! Columnar arrays: the vectorized execution representation.
//!
//! Each [`Array`] stores one column of a [`crate::Batch`]: a typed
//! values buffer plus a validity [`Bitmap`]. Invalid slots hold an
//! arbitrary (zeroed) value in the buffer; consumers must consult the
//! bitmap. Operators work on whole arrays at a time, which keeps the
//! mediator's per-row interpretive overhead off the hot path — the
//! vectorization advice of the perf guide applied to a query engine.
//!
//! **A column is a shared immutable buffer.** Both halves of an array
//! sit behind an [`Arc`], so `clone` — and everything built on it:
//! projection, `hstack`, an identity cast, a column-reference
//! expression, a cache hit — costs two reference counts, not one copy
//! per cell. Nothing mutates a finished array; [`ArrayBuilder`] owns
//! plain `Vec`s and wraps them only in [`ArrayBuilder::finish`]. The
//! operations that produce *new* cells ([`Array::take`],
//! [`Array::filter`], [`Array::slice`], multi-part [`Array::concat`],
//! a real cast) allocate fresh buffers and never alias their input.

use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{GisError, Result};
use crate::value::Value;
use std::sync::Arc;

/// The shared, immutable values half of an [`Array`].
pub type Buffer<T> = Arc<Vec<T>>;

/// A typed column of values with a validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum Array {
    /// Boolean column: values + validity.
    Boolean(Buffer<bool>, Arc<Bitmap>),
    /// Int32 column.
    Int32(Buffer<i32>, Arc<Bitmap>),
    /// Int64 column.
    Int64(Buffer<i64>, Arc<Bitmap>),
    /// Float64 column.
    Float64(Buffer<f64>, Arc<Bitmap>),
    /// Utf8 column.
    Utf8(Buffer<String>, Arc<Bitmap>),
    /// Date column (days since epoch).
    Date(Buffer<i32>, Arc<Bitmap>),
    /// Timestamp column (microseconds since epoch).
    Timestamp(Buffer<i64>, Arc<Bitmap>),
}

macro_rules! dispatch {
    ($self:expr, ($vals:ident, $valid:ident) => $body:expr) => {
        match $self {
            Array::Boolean($vals, $valid) => $body,
            Array::Int32($vals, $valid) => $body,
            Array::Int64($vals, $valid) => $body,
            Array::Float64($vals, $valid) => $body,
            Array::Utf8($vals, $valid) => $body,
            Array::Date($vals, $valid) => $body,
            Array::Timestamp($vals, $valid) => $body,
        }
    };
}

/// Rebuilds `$self` in its own variant from freshly computed halves:
/// `$body` sees the borrowed `($vals, $valid)` and yields the new
/// `(Vec<T>, Bitmap)`.
macro_rules! rebuild {
    ($self:expr, ($vals:ident, $valid:ident) => $body:expr) => {
        match $self {
            Array::Boolean($vals, $valid) => wrap(Array::Boolean, $body),
            Array::Int32($vals, $valid) => wrap(Array::Int32, $body),
            Array::Int64($vals, $valid) => wrap(Array::Int64, $body),
            Array::Float64($vals, $valid) => wrap(Array::Float64, $body),
            Array::Utf8($vals, $valid) => wrap(Array::Utf8, $body),
            Array::Date($vals, $valid) => wrap(Array::Date, $body),
            Array::Timestamp($vals, $valid) => wrap(Array::Timestamp, $body),
        }
    };
}

fn wrap<T>(
    variant: impl FnOnce(Buffer<T>, Arc<Bitmap>) -> Array,
    (values, validity): (Vec<T>, Bitmap),
) -> Array {
    variant(Arc::new(values), Arc::new(validity))
}

impl Array {
    /// The logical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Array::Boolean(..) => DataType::Boolean,
            Array::Int32(..) => DataType::Int32,
            Array::Int64(..) => DataType::Int64,
            Array::Float64(..) => DataType::Float64,
            Array::Utf8(..) => DataType::Utf8,
            Array::Date(..) => DataType::Date,
            Array::Timestamp(..) => DataType::Timestamp,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        dispatch!(self, (v, _m) => v.len())
    }

    /// True when the array has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        dispatch!(self, (_v, m) => m.len() - m.count_set())
    }

    /// True when slot `i` is valid (non-NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        dispatch!(self, (_v, m) => m.get(i))
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        dispatch!(self, (_v, m) => m)
    }

    /// Materializes slot `i` as a [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Array::Boolean(v, m) => slot(m, i, || Value::Boolean(v[i])),
            Array::Int32(v, m) => slot(m, i, || Value::Int32(v[i])),
            Array::Int64(v, m) => slot(m, i, || Value::Int64(v[i])),
            Array::Float64(v, m) => slot(m, i, || Value::Float64(v[i])),
            Array::Utf8(v, m) => slot(m, i, || Value::Utf8(v[i].clone())),
            Array::Date(v, m) => slot(m, i, || Value::Date(v[i])),
            Array::Timestamp(v, m) => slot(m, i, || Value::Timestamp(v[i])),
        }
    }

    /// An empty array of the given type. `Null`-typed requests
    /// materialize as an all-null Int32 column.
    pub fn empty(dt: DataType) -> Array {
        ArrayBuilder::new(dt).finish()
    }

    /// An array of `len` NULL slots of type `dt`.
    pub fn nulls(dt: DataType, len: usize) -> Array {
        let mut b = ArrayBuilder::with_capacity(dt, len);
        for _ in 0..len {
            b.push_null();
        }
        b.finish()
    }

    /// Builds an array from scalar values, coercing each to `dt`.
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Array> {
        let mut b = ArrayBuilder::with_capacity(dt, values.len());
        for v in values {
            b.push_value(&v.cast_to(dt)?)?;
        }
        Ok(b.finish())
    }

    /// An array where every slot holds `value` (broadcast of a scalar).
    pub fn from_scalar(value: &Value, len: usize, dt: DataType) -> Result<Array> {
        let valid = || Arc::new(Bitmap::from_element(len, true));
        Ok(match value.cast_to(dt)? {
            Value::Null => Array::nulls(dt, len),
            Value::Boolean(x) => Array::Boolean(Arc::new(vec![x; len]), valid()),
            Value::Int32(x) => Array::Int32(Arc::new(vec![x; len]), valid()),
            Value::Int64(x) => Array::Int64(Arc::new(vec![x; len]), valid()),
            Value::Float64(x) => Array::Float64(Arc::new(vec![x; len]), valid()),
            Value::Utf8(x) => Array::Utf8(Arc::new(vec![x; len]), valid()),
            Value::Date(x) => Array::Date(Arc::new(vec![x; len]), valid()),
            Value::Timestamp(x) => Array::Timestamp(Arc::new(vec![x; len]), valid()),
        })
    }

    /// Gather: new array containing `indices` slots in order. Invalid
    /// slots come out zeroed whatever the input buffer held.
    pub fn take(&self, indices: &[usize]) -> Array {
        self.take_by(indices.iter().copied())
    }

    /// [`Array::take`] over any re-iterable index source, so a caller
    /// holding its row numbers in another shape (one side of a join's
    /// `(u32, u32)` pair list) gathers from it directly.
    pub fn take_by<I>(&self, indices: I) -> Array
    where
        I: Iterator<Item = usize> + Clone,
    {
        rebuild!(self, (v, m) => gather(v, m, indices))
    }

    /// Gather with holes: `None` yields a NULL slot (the padded side of
    /// an outer join).
    pub fn take_opt<I>(&self, indices: I) -> Array
    where
        I: Iterator<Item = Option<usize>> + Clone,
    {
        rebuild!(self, (v, m) => gather_opt(v, m, indices))
    }

    /// Filter: keep the slots where `keep` is true.
    pub fn filter(&self, keep: &[bool]) -> Array {
        assert_eq!(keep.len(), self.len(), "filter mask length mismatch");
        self.take(&mask_indices(keep))
    }

    /// Slots `[offset, offset+len)` as a new array (copies the range).
    pub fn slice(&self, offset: usize, len: usize) -> Array {
        rebuild!(self, (v, m) => (v[offset..offset + len].to_vec(), m.slice(offset, len)))
    }

    /// Concatenates arrays of identical type: one typed bulk append per
    /// part. A single part is returned as is, sharing its buffers.
    pub fn concat(arrays: &[Array]) -> Result<Array> {
        let Some(first) = arrays.first() else {
            return Err(GisError::Internal("concat of zero arrays".into()));
        };
        let dt = first.data_type();
        if let Some(a) = arrays.iter().find(|a| a.data_type() != dt) {
            return Err(GisError::Internal(format!(
                "concat type mismatch: {dt} vs {}",
                a.data_type()
            )));
        }
        if arrays.len() == 1 {
            return Ok(first.clone());
        }
        let total = arrays.iter().map(Array::len).sum();
        macro_rules! append {
            ($variant:ident) => {{
                let mut vals = Vec::with_capacity(total);
                let mut valid = Bitmap::with_capacity(total);
                for a in arrays {
                    // Types were checked above, so every part matches.
                    if let Array::$variant(v, m) = a {
                        vals.extend_from_slice(v);
                        valid.extend_from(m);
                    }
                }
                wrap(Array::$variant, (vals, valid))
            }};
        }
        Ok(match first {
            Array::Boolean(..) => append!(Boolean),
            Array::Int32(..) => append!(Int32),
            Array::Int64(..) => append!(Int64),
            Array::Float64(..) => append!(Float64),
            Array::Utf8(..) => append!(Utf8),
            Array::Date(..) => append!(Date),
            Array::Timestamp(..) => append!(Timestamp),
        })
    }

    /// Casts every slot to `target`, following [`Value::cast_to`] rules.
    /// Casting to the array's own type shares its buffers.
    pub fn cast_to(&self, target: DataType) -> Result<Array> {
        if self.data_type() == target {
            return Ok(self.clone());
        }
        // Fast paths for the common numeric widenings keep the mediator
        // mapping layer cheap (exercised heavily by experiment T3).
        match (self, target) {
            (Array::Int32(v, m), DataType::Int64) => Ok(Array::Int64(
                Arc::new(v.iter().map(|&x| x as i64).collect()),
                m.clone(),
            )),
            (Array::Int32(v, m), DataType::Float64) => Ok(Array::Float64(
                Arc::new(v.iter().map(|&x| x as f64).collect()),
                m.clone(),
            )),
            (Array::Int64(v, m), DataType::Float64) => Ok(Array::Float64(
                Arc::new(v.iter().map(|&x| x as f64).collect()),
                m.clone(),
            )),
            _ => {
                let mut b = ArrayBuilder::with_capacity(target, self.len());
                for i in 0..self.len() {
                    b.push_value(&self.value_at(i).cast_to(target)?)?;
                }
                Ok(b.finish())
            }
        }
    }

    /// Approximate bytes this array occupies on the simulated wire:
    /// the packed validity bitmap plus the value payload of all slots
    /// (invalid fixed-width slots still ship their zeroed payload,
    /// matching the flat wire layout `gis-net` serializes).
    pub fn wire_size(&self) -> usize {
        let bitmap = self.validity().wire_size();
        let payload = match self {
            Array::Boolean(v, _) => v.len(),
            Array::Int32(v, _) | Array::Date(v, _) => v.len() * 4,
            Array::Int64(v, _) | Array::Timestamp(v, _) => v.len() * 8,
            Array::Float64(v, _) => v.len() * 8,
            Array::Utf8(v, _) => v.iter().map(|s| 4 + s.len()).sum(),
        };
        bitmap + payload
    }

    /// Iterates slots as [`Value`]s (materializing; test/debug use).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value_at(i))
    }

    /// Borrowed i64 values, widening Int32/Date/Timestamp; used by
    /// vectorized kernels that only need integer payloads.
    pub fn as_i64_lossy(&self, i: usize) -> Option<i64> {
        if !self.is_valid(i) {
            return None;
        }
        match self {
            Array::Int32(v, _) | Array::Date(v, _) => Some(v[i] as i64),
            Array::Int64(v, _) | Array::Timestamp(v, _) => Some(v[i]),
            Array::Boolean(v, _) => Some(i64::from(v[i])),
            _ => None,
        }
    }
}

/// The `indices` slots of one column's halves, in order.
fn gather<T, I>(v: &[T], m: &Bitmap, indices: I) -> (Vec<T>, Bitmap)
where
    T: Clone + Default,
    I: Iterator<Item = usize> + Clone,
{
    if m.all_set() {
        let vals: Vec<T> = indices.map(|i| v[i].clone()).collect();
        let valid = Bitmap::from_element(vals.len(), true);
        return (vals, valid);
    }
    let vals = indices
        .clone()
        .map(|i| if m.get(i) { v[i].clone() } else { T::default() })
        .collect();
    (vals, indices.map(|i| m.get(i)).collect())
}

/// [`gather`] with holes: `None` is a NULL slot.
fn gather_opt<T, I>(v: &[T], m: &Bitmap, indices: I) -> (Vec<T>, Bitmap)
where
    T: Clone + Default,
    I: Iterator<Item = Option<usize>> + Clone,
{
    let vals = indices
        .clone()
        .map(|i| match i {
            Some(i) if m.get(i) => v[i].clone(),
            _ => T::default(),
        })
        .collect();
    (vals, indices.map(|i| i.is_some_and(|i| m.get(i))).collect())
}

/// Positions of the `true` entries of a keep-mask.
pub(crate) fn mask_indices(keep: &[bool]) -> Vec<usize> {
    keep.iter()
        .enumerate()
        .filter_map(|(i, &k)| k.then_some(i))
        .collect()
}

#[inline]
fn slot(m: &Bitmap, i: usize, f: impl FnOnce() -> Value) -> Value {
    if m.get(i) {
        f()
    } else {
        Value::Null
    }
}

/// The values half of a column under construction.
#[derive(Debug)]
enum Values {
    Boolean(Vec<bool>),
    Int32(Vec<i32>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<String>),
    Date(Vec<i32>),
    Timestamp(Vec<i64>),
}

/// The values half of an [`ArrayBuilder`], borrowed for a bulk append
/// (see [`ArrayBuilder::parts_mut`]). `Int32` also backs `Date`
/// columns and `Int64` backs `Timestamp` ones.
#[derive(Debug)]
pub enum ValuesMut<'a> {
    /// Boolean slots.
    Boolean(&'a mut Vec<bool>),
    /// 32-bit slots (`Int32`, `Date`).
    Int32(&'a mut Vec<i32>),
    /// 64-bit slots (`Int64`, `Timestamp`).
    Int64(&'a mut Vec<i64>),
    /// Float slots.
    Float64(&'a mut Vec<f64>),
    /// String slots.
    Utf8(&'a mut Vec<String>),
}

/// Incremental builder for an [`Array`]. It owns plain, growable
/// buffers; only [`ArrayBuilder::finish`] — which consumes the builder
/// — puts them behind the shared pointers an array hands out, so no
/// array can ever observe a buffer that is still being written.
#[derive(Debug)]
pub struct ArrayBuilder {
    values: Values,
    validity: Bitmap,
}

impl ArrayBuilder {
    /// A builder producing arrays of type `dt`.
    pub fn new(dt: DataType) -> Self {
        ArrayBuilder::with_capacity(dt, 0)
    }

    /// A builder with reserved capacity. `Null`-typed requests build
    /// an Int32 column.
    pub fn with_capacity(dt: DataType, cap: usize) -> Self {
        let values = match dt {
            DataType::Boolean => Values::Boolean(Vec::with_capacity(cap)),
            DataType::Int32 | DataType::Null => Values::Int32(Vec::with_capacity(cap)),
            DataType::Int64 => Values::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => Values::Float64(Vec::with_capacity(cap)),
            DataType::Utf8 => Values::Utf8(Vec::with_capacity(cap)),
            DataType::Date => Values::Date(Vec::with_capacity(cap)),
            DataType::Timestamp => Values::Timestamp(Vec::with_capacity(cap)),
        };
        ArrayBuilder {
            values,
            validity: Bitmap::with_capacity(cap),
        }
    }

    /// The type being built.
    pub fn data_type(&self) -> DataType {
        match self.values {
            Values::Boolean(_) => DataType::Boolean,
            Values::Int32(_) => DataType::Int32,
            Values::Int64(_) => DataType::Int64,
            Values::Float64(_) => DataType::Float64,
            Values::Utf8(_) => DataType::Utf8,
            Values::Date(_) => DataType::Date,
            Values::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// Slots appended so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Reserves room for `additional` more slots.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.values {
            Values::Boolean(v) => v.reserve(additional),
            Values::Int32(v) | Values::Date(v) => v.reserve(additional),
            Values::Int64(v) | Values::Timestamp(v) => v.reserve(additional),
            Values::Float64(v) => v.reserve(additional),
            Values::Utf8(v) => v.reserve(additional),
        }
    }

    /// Drops every slot from `len` on — how a bulk append that failed
    /// half way is undone. A no-op when already shorter.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.values {
            Values::Boolean(v) => v.truncate(len),
            Values::Int32(v) | Values::Date(v) => v.truncate(len),
            Values::Int64(v) | Values::Timestamp(v) => v.truncate(len),
            Values::Float64(v) => v.truncate(len),
            Values::Utf8(v) => v.truncate(len),
        }
        self.validity.truncate(len);
    }

    /// Both halves, for a decoder that appends many slots at once
    /// straight into the buffers. The caller must leave them the same
    /// length (a NULL slot still occupies a zeroed value);
    /// [`ArrayBuilder::finish`] checks that it did, and
    /// [`ArrayBuilder::truncate`] restores it after a failed append.
    pub fn parts_mut(&mut self) -> (ValuesMut<'_>, &mut Bitmap) {
        let values = match &mut self.values {
            Values::Boolean(v) => ValuesMut::Boolean(v),
            Values::Int32(v) | Values::Date(v) => ValuesMut::Int32(v),
            Values::Int64(v) | Values::Timestamp(v) => ValuesMut::Int64(v),
            Values::Float64(v) => ValuesMut::Float64(v),
            Values::Utf8(v) => ValuesMut::Utf8(v),
        };
        (values, &mut self.validity)
    }

    /// Appends a NULL slot.
    pub fn push_null(&mut self) {
        match &mut self.values {
            Values::Boolean(v) => v.push(false),
            Values::Int32(v) | Values::Date(v) => v.push(0),
            Values::Int64(v) | Values::Timestamp(v) => v.push(0),
            Values::Float64(v) => v.push(0.0),
            Values::Utf8(v) => v.push(String::new()),
        }
        self.validity.push(false);
    }

    /// Appends a value, which must match the builder type exactly
    /// (or be NULL). Use [`Value::cast_to`] first for coercion.
    pub fn push_value(&mut self, value: &Value) -> Result<()> {
        match (&mut self.values, value) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(());
            }
            (Values::Boolean(v), Value::Boolean(x)) => v.push(*x),
            (Values::Int32(v), Value::Int32(x)) => v.push(*x),
            (Values::Int64(v), Value::Int64(x)) => v.push(*x),
            (Values::Float64(v), Value::Float64(x)) => v.push(*x),
            (Values::Utf8(v), Value::Utf8(x)) => v.push(x.clone()),
            (Values::Date(v), Value::Date(x)) => v.push(*x),
            (Values::Timestamp(v), Value::Timestamp(x)) => v.push(*x),
            (_, v) => {
                return Err(GisError::Internal(format!(
                    "builder type mismatch: array {} vs value {}",
                    self.data_type(),
                    v.data_type()
                )))
            }
        }
        self.validity.push(true);
        Ok(())
    }

    /// Appends a raw bool (convenience for kernel outputs).
    pub fn push_bool(&mut self, x: bool) -> Result<()> {
        self.push_value(&Value::Boolean(x))
    }

    /// Consumes the builder, yielding the array. Panics when a bulk
    /// append through [`ArrayBuilder::parts_mut`] left the two halves
    /// at different lengths.
    pub fn finish(self) -> Array {
        let slots = match &self.values {
            Values::Boolean(v) => v.len(),
            Values::Int32(v) | Values::Date(v) => v.len(),
            Values::Int64(v) | Values::Timestamp(v) => v.len(),
            Values::Float64(v) => v.len(),
            Values::Utf8(v) => v.len(),
        };
        assert_eq!(slots, self.validity.len(), "array builder halves diverged");
        let validity = Arc::new(self.validity);
        match self.values {
            Values::Boolean(v) => Array::Boolean(Arc::new(v), validity),
            Values::Int32(v) => Array::Int32(Arc::new(v), validity),
            Values::Int64(v) => Array::Int64(Arc::new(v), validity),
            Values::Float64(v) => Array::Float64(Arc::new(v), validity),
            Values::Utf8(v) => Array::Utf8(Arc::new(v), validity),
            Values::Date(v) => Array::Date(Arc::new(v), validity),
            Values::Timestamp(v) => Array::Timestamp(Arc::new(v), validity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_array(vals: &[Option<i64>]) -> Array {
        let mut b = ArrayBuilder::new(DataType::Int64);
        for v in vals {
            match v {
                Some(x) => b.push_value(&Value::Int64(*x)).unwrap(),
                None => b.push_null(),
            }
        }
        b.finish()
    }

    #[test]
    fn build_and_read_back() {
        let a = int_array(&[Some(1), None, Some(3)]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.null_count(), 1);
        assert_eq!(a.value_at(0), Value::Int64(1));
        assert_eq!(a.value_at(1), Value::Null);
        assert_eq!(a.value_at(2), Value::Int64(3));
    }

    #[test]
    fn builder_rejects_type_mismatch() {
        let mut b = ArrayBuilder::new(DataType::Int64);
        assert!(b.push_value(&Value::Utf8("x".into())).is_err());
        assert!(b.push_value(&Value::Null).is_ok());
    }

    #[test]
    fn bulk_append_and_truncate() {
        let mut b = ArrayBuilder::new(DataType::Date);
        b.push_value(&Value::Date(1)).unwrap();
        b.reserve(3);
        if let (ValuesMut::Int32(v), m) = b.parts_mut() {
            v.extend_from_slice(&[0, 7, 8]);
            m.extend_from_packed(&[0b110], 3);
        }
        assert_eq!(b.len(), 4);
        b.truncate(3);
        b.truncate(9);
        assert_eq!(
            b.finish().iter_values().collect::<Vec<_>>(),
            vec![Value::Date(1), Value::Null, Value::Date(7)]
        );
        let mut b = ArrayBuilder::new(DataType::Utf8);
        if let (ValuesMut::Utf8(v), _) = b.parts_mut() {
            v.push("half".into());
        }
        b.truncate(0);
        assert!(b.finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "halves diverged")]
    fn finish_refuses_diverged_halves() {
        let mut b = ArrayBuilder::new(DataType::Int64);
        if let (ValuesMut::Int64(v), _) = b.parts_mut() {
            v.push(1);
        }
        b.finish();
    }

    #[test]
    fn take_by_and_take_opt_gather_like_take() {
        let a = int_array(&[Some(10), None, Some(30), Some(40)]);
        let pairs = [(3u32, 0u32), (1, 1), (0, 2)];
        assert_eq!(
            a.take_by(pairs.iter().map(|p| p.0 as usize)),
            a.take(&[3, 1, 0])
        );
        let holes = a.take_opt([Some(2), None, Some(1)].into_iter());
        assert_eq!(
            holes.iter_values().collect::<Vec<_>>(),
            vec![Value::Int64(30), Value::Null, Value::Null]
        );
        assert_eq!(holes, int_array(&[Some(30), None, None]));
    }

    #[test]
    fn take_preserves_nulls() {
        let a = int_array(&[Some(10), None, Some(30), Some(40)]);
        let t = a.take(&[3, 1, 0]);
        assert_eq!(
            t.iter_values().collect::<Vec<_>>(),
            vec![Value::Int64(40), Value::Null, Value::Int64(10)]
        );
    }

    #[test]
    fn filter_keeps_marked_slots() {
        let a = int_array(&[Some(1), Some(2), None, Some(4)]);
        let f = a.filter(&[true, false, true, true]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.value_at(1), Value::Null);
        assert_eq!(f.value_at(2), Value::Int64(4));
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = int_array(&[Some(1), None]);
        let b = int_array(&[Some(3)]);
        let c = Array::concat(&[a.clone(), b]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.slice(1, 2).value_at(1), Value::Int64(3));
        assert!(Array::concat(&[]).is_err());
        let s = Array::concat(&[a, Array::empty(DataType::Utf8)]);
        assert!(s.is_err());
    }

    #[test]
    fn cast_fast_paths_match_slow_path() {
        let a = int_array(&[Some(1), None, Some(-5)]);
        let fast = a.cast_to(DataType::Float64).unwrap();
        assert_eq!(fast.value_at(0), Value::Float64(1.0));
        assert_eq!(fast.value_at(1), Value::Null);
        assert_eq!(fast.value_at(2), Value::Float64(-5.0));
        // utf8 path goes through value casting
        let s = a.cast_to(DataType::Utf8).unwrap();
        assert_eq!(s.value_at(2), Value::Utf8("-5".into()));
    }

    #[test]
    fn from_scalar_broadcasts() {
        let a = Array::from_scalar(&Value::Int32(7), 4, DataType::Int64).unwrap();
        assert_eq!(a.len(), 4);
        assert!(a.iter_values().all(|v| v == Value::Int64(7)));
    }

    #[test]
    fn wire_size_accounts_for_strings() {
        let mut b = ArrayBuilder::new(DataType::Utf8);
        b.push_value(&Value::Utf8("hello".into())).unwrap();
        b.push_null();
        let a = b.finish();
        // bitmap: 1 byte; "hello": 4+5; null string: 4+0
        assert_eq!(a.wire_size(), 1 + 9 + 4);
    }

    #[test]
    fn nulls_constructor() {
        let a = Array::nulls(DataType::Utf8, 3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.null_count(), 3);
        assert_eq!(a.data_type(), DataType::Utf8);
    }
}
