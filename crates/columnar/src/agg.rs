//! Aggregate functions and their columnar accumulators.
//!
//! [`GroupAcc`] holds the running state of one aggregate across *all*
//! groups as dense per-group vectors and consumes `(group_ids, argument
//! array)` pairs. Each state shape is written once and instantiated per
//! element type: `COUNT`; one folded state (running value plus a `seen`
//! flag) shared by `SUM` (wrapping `i64`, `f64`) and `MIN`/`MAX` (`i64`,
//! `f64` by `total_cmp`, Date32 `i32`, `bool` with `false < true`); `AVG`
//! as exact `(sum, count)` pairs; and a byte-compare `MIN`/`MAX` over
//! Utf8 and dictionary strings. The state is picked once per aggregate and
//! called once per batch; its loops are monomorphised, with a no-nulls
//! fast path.
//!
//! [`GroupAcc::new`] accepts exactly what [`AggFunc::result_type`]
//! accepts. [`GroupAcc::update`] returns an error for an argument whose
//! type or length does not match, rather than dropping or panicking.
//!
//! Accumulators support the two-phase (partial → final) protocol a
//! distributed engine needs: `update` consumes input rows, `merge` combines
//! partial states column-wise (e.g. from different splits or storage
//! nodes), and `finish` produces one result column. Group ids come from
//! [`crate::groupby::GroupIdMap`]; [`crate::groupby::GroupedAggregator`]
//! bundles both halves.

use std::any::Any;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::marker::PhantomData;

use crate::array::{Array, BooleanArray, Date32Array, Float64Array, Int64Array, Utf8Array};
use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{ColumnarError, Result};

/// The aggregate functions supported for pushdown in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(x)`.
    Count,
    /// `SUM(x)`.
    Sum,
    /// `MIN(x)`.
    Min,
    /// `MAX(x)`.
    Max,
    /// `AVG(x)`.
    Avg,
}

impl AggFunc {
    /// SQL name.
    pub fn sql(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Parse a SQL function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }

    /// Result type given the argument type (`None` = `*`): `COUNT` takes
    /// anything or nothing, `SUM` and `AVG` an Int64 or Float64, `MIN` and
    /// `MAX` an argument of any type. The one measure rule: the engine's
    /// analyzer and planck both type aggregates with it.
    pub fn result_type(&self, input: Option<DataType>) -> Result<DataType> {
        use DataType::{Float64, Int64};
        match (self, input) {
            (AggFunc::Count, _) => Ok(Int64),
            (AggFunc::Sum, Some(t @ (Int64 | Float64)))
            | (AggFunc::Min | AggFunc::Max, Some(t)) => Ok(t),
            (AggFunc::Avg, Some(Int64 | Float64)) => Ok(Float64),
            (_, Some(t)) => Err(ColumnarError::Invalid(format!(
                "{} over {t} not supported",
                self.sql()
            ))),
            (_, None) => Err(ColumnarError::Invalid(format!(
                "{} requires an argument",
                self.sql()
            ))),
        }
    }
}

/// Expand to a `(group_ids, values)` update loop with a no-nulls fast path.
/// `$body(g, v)` folds value `v` into group slot `g`.
macro_rules! update_loop {
    ($gids:expr, $values:expr, $validity:expr, |$g:ident, $v:ident| $body:expr) => {
        match $validity {
            None => {
                for (&gid, &$v) in $gids.iter().zip($values.iter()) {
                    let $g = gid as usize;
                    $body
                }
            }
            Some(bm) => {
                for (i, (&gid, &$v)) in $gids.iter().zip($values.iter()).enumerate() {
                    if bm.get(i) {
                        let $g = gid as usize;
                        $body
                    }
                }
            }
        }
    };
}

/// A fixed-width element type: Int64 `i64`, Float64 `f64`, Date32 `i32`
/// or Boolean `bool`.
trait Elem: Copy + Default + Debug + Send + Sync + 'static {
    /// The argument's values and validity, or `None` for another type.
    fn view(arr: &Array) -> Option<(Cow<'_, [Self]>, Option<&Bitmap>)>;
    /// The result column.
    fn column(values: Vec<Self>, validity: Option<Bitmap>) -> Array;
    /// The order `MIN` and `MAX` use.
    fn order(self, other: Self) -> Ordering;
}

macro_rules! dense_elem {
    ($t:ty, $variant:ident, $array:ident, $order:path) => {
        impl Elem for $t {
            fn view(arr: &Array) -> Option<(Cow<'_, [$t]>, Option<&Bitmap>)> {
                match arr {
                    Array::$variant(a) => Some((Cow::Borrowed(&a.values[..]), a.validity.as_ref())),
                    _ => None,
                }
            }
            fn column(values: Vec<$t>, validity: Option<Bitmap>) -> Array {
                Array::$variant($array { values, validity })
            }
            #[inline]
            fn order(self, other: $t) -> Ordering {
                $order(&self, &other)
            }
        }
    };
}

dense_elem!(i64, Int64, Int64Array, Ord::cmp);
dense_elem!(f64, Float64, Float64Array, f64::total_cmp);
dense_elem!(i32, Date32, Date32Array, Ord::cmp);

impl Elem for bool {
    /// Booleans are bit-packed; one batch unpacks into a `Vec<bool>`.
    fn view(arr: &Array) -> Option<(Cow<'_, [bool]>, Option<&Bitmap>)> {
        match arr {
            Array::Boolean(a) => Some((Cow::Owned(a.values.iter().collect()), a.validity.as_ref())),
            _ => None,
        }
    }
    fn column(values: Vec<bool>, validity: Option<Bitmap>) -> Array {
        Array::Boolean(BooleanArray {
            values: Bitmap::from_bools(&values),
            validity,
        })
    }
    #[inline]
    fn order(self, other: bool) -> Ordering {
        self.cmp(&other)
    }
}

/// A `SUM` and `AVG` element type.
trait Num: Elem {
    /// `self + v`, wrapping for `i64` (as two's-complement SQL engines do).
    fn add(self, v: Self) -> Self;
    /// The value as an `AVG` sum term.
    fn to_f64(self) -> f64;
}

impl Num for i64 {
    #[inline]
    fn add(self, v: i64) -> i64 {
        self.wrapping_add(v)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Num for f64 {
    #[inline]
    fn add(self, v: f64) -> f64 {
        self + v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

/// How one non-null value folds into a group's running value; `seen` says
/// whether the group holds one yet.
trait Fold<T>: Debug + Send + Sync + 'static {
    fn fold(seen: bool, acc: &mut T, v: T);
}

/// `SUM`: every value adds to a running value that starts at zero.
#[derive(Debug)]
struct Sum;

impl<T: Num> Fold<T> for Sum {
    #[inline]
    fn fold(_seen: bool, acc: &mut T, v: T) {
        *acc = acc.add(v);
    }
}

/// `MIN` or `MAX`: the first value, then each that orders past it.
trait Extremum: Debug + Send + Sync + 'static {
    /// Whether a value ordered `ord` against the current one replaces it.
    fn better(ord: Ordering) -> bool;
}

#[derive(Debug)]
struct Min;

impl Extremum for Min {
    #[inline]
    fn better(ord: Ordering) -> bool {
        ord.is_lt()
    }
}

#[derive(Debug)]
struct Max;

impl Extremum for Max {
    #[inline]
    fn better(ord: Ordering) -> bool {
        ord.is_gt()
    }
}

impl<T: Elem, M: Extremum> Fold<T> for M {
    #[inline]
    fn fold(seen: bool, acc: &mut T, v: T) {
        if !seen || M::better(v.order(*acc)) {
            *acc = v;
        }
    }
}

/// The running state of one aggregate shape over one element type,
/// called once per batch.
trait State: Any + Debug + Send + Sync {
    /// Grow to `n` group slots; new slots start in the initial state.
    fn resize(&mut self, n: usize);
    /// Fold a batch in; `arg` is checked for type and length already.
    fn update(&mut self, group_ids: &[u32], arg: Option<&Array>) -> Result<()>;
    /// Merge a partial state of the same shape and element type.
    fn merge(&mut self, other: &dyn State, group_map: &[u32]) -> Result<()>;
    /// The result column, one row per group.
    fn finish(self: Box<Self>) -> Array;
}

/// The error for an argument a state cannot fold. [`GroupAcc::update`]
/// checks the argument's type first, so only a state picked wrongly by
/// [`GroupAcc::new`] could return it.
fn unfit() -> ColumnarError {
    ColumnarError::Invalid("argument does not fit the aggregate state".into())
}

/// `arg`'s values as `T`s.
fn view<T: Elem>(arg: Option<&Array>) -> Result<(Cow<'_, [T]>, Option<&Bitmap>)> {
    arg.and_then(T::view).ok_or_else(unfit)
}

/// `other` as a state of `S`'s kind.
fn same<S: State>(other: &dyn State) -> Result<&S> {
    (other as &dyn Any).downcast_ref::<S>().ok_or_else(|| {
        ColumnarError::Invalid(format!(
            "cannot merge aggregate states: expected {}",
            std::any::type_name::<S>()
        ))
    })
}

/// A validity bitmap over `valid`, or none when every group is valid.
fn validity(valid: &[bool]) -> Option<Bitmap> {
    (!valid.iter().all(|&v| v)).then(|| Bitmap::from_bools(valid))
}

/// `COUNT`: per-group row counts.
#[derive(Debug)]
struct Count(Vec<i64>);

impl State for Count {
    fn resize(&mut self, n: usize) {
        self.0.resize(n, 0);
    }

    fn update(&mut self, group_ids: &[u32], arg: Option<&Array>) -> Result<()> {
        // COUNT(*) counts every row; COUNT(x) skips NULL x. The ids stand
        // in for the argument's values, which COUNT never reads.
        let counts = &mut self.0;
        update_loop!(
            group_ids,
            group_ids,
            arg.and_then(Array::validity),
            |g, _row| counts[g] += 1
        );
        Ok(())
    }

    fn merge(&mut self, other: &dyn State, group_map: &[u32]) -> Result<()> {
        for (&g, v) in group_map.iter().zip(&same::<Self>(other)?.0) {
            self.0[g as usize] += v;
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> Array {
        Array::from_i64(self.0)
    }
}

/// Per-group running values and whether each group saw a non-null input
/// (`SUM`, `MIN` and `MAX` of no rows is NULL): the one state of `SUM` and
/// `MIN`/`MAX` over every element type, `F` saying how a value folds in.
#[derive(Debug)]
struct Folded<T, F> {
    values: Vec<T>,
    seen: Vec<bool>,
    fold: PhantomData<F>,
}

impl<T: Elem, F: Fold<T>> State for Folded<T, F> {
    fn resize(&mut self, n: usize) {
        self.values.resize(n, T::default());
        self.seen.resize(n, false);
    }

    fn update(&mut self, group_ids: &[u32], arg: Option<&Array>) -> Result<()> {
        let (values, validity) = view::<T>(arg)?;
        let (acc, seen) = (&mut self.values, &mut self.seen);
        update_loop!(group_ids, values, validity, |g, v| {
            F::fold(seen[g], &mut acc[g], v);
            seen[g] = true;
        });
        Ok(())
    }

    fn merge(&mut self, other: &dyn State, group_map: &[u32]) -> Result<()> {
        let other = same::<Self>(other)?;
        for (i, &g) in group_map.iter().enumerate() {
            let g = g as usize;
            // Only a partial that saw input folds in, so an empty one's zero
            // state cannot touch the running value.
            if other.seen[i] {
                F::fold(self.seen[g], &mut self.values[g], other.values[i]);
                self.seen[g] = true;
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> Array {
        T::column(self.values, validity(&self.seen))
    }
}

fn folded<T: Elem, F: Fold<T>>() -> Box<dyn State> {
    Box::new(Folded::<T, F> {
        values: Vec::new(),
        seen: Vec::new(),
        fold: PhantomData,
    })
}

/// `AVG`: exact `(sum, count)` pairs, so the distributed merge is exact.
#[derive(Debug)]
struct Avg<T> {
    sums: Vec<f64>,
    counts: Vec<i64>,
    input: PhantomData<T>,
}

impl<T: Num> State for Avg<T> {
    fn resize(&mut self, n: usize) {
        self.sums.resize(n, 0.0);
        self.counts.resize(n, 0);
    }

    fn update(&mut self, group_ids: &[u32], arg: Option<&Array>) -> Result<()> {
        let (values, validity) = view::<T>(arg)?;
        let (sums, counts) = (&mut self.sums, &mut self.counts);
        update_loop!(group_ids, values, validity, |g, v| {
            sums[g] += v.to_f64();
            counts[g] += 1;
        });
        Ok(())
    }

    fn merge(&mut self, other: &dyn State, group_map: &[u32]) -> Result<()> {
        let other = same::<Self>(other)?;
        for (i, &g) in group_map.iter().enumerate() {
            let g = g as usize;
            // Skip empty partials, as the folded state does.
            if other.counts[i] > 0 {
                self.sums[g] += other.sums[i];
                self.counts[g] += other.counts[i];
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> Array {
        let values = self
            .sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect();
        let seen: Vec<bool> = self.counts.iter().map(|&c| c > 0).collect();
        Array::Float64(Float64Array {
            values,
            validity: validity(&seen),
        })
    }
}

fn avg<T: Num>() -> Box<dyn State> {
    Box::new(Avg::<T> {
        sums: Vec::new(),
        counts: Vec::new(),
        input: PhantomData,
    })
}

/// `MIN`/`MAX` over Utf8 and dictionary strings, in byte order (which is
/// `str` order): per-group extremum, `None` until seen.
#[derive(Debug)]
struct Strs<M> {
    values: Vec<Option<String>>,
    order: PhantomData<M>,
}

impl<M: Extremum> Strs<M> {
    /// Fold `v` into `cur`; only a new extremum becomes a `String`.
    #[inline]
    fn fold(cur: &mut Option<String>, v: &[u8]) {
        if cur.as_ref().is_none_or(|c| M::better(v.cmp(c.as_bytes()))) {
            *cur = Some(String::from_utf8_lossy(v).into_owned());
        }
    }
}

impl<M: Extremum> State for Strs<M> {
    fn resize(&mut self, n: usize) {
        self.values.resize(n, None);
    }

    fn update(&mut self, group_ids: &[u32], arg: Option<&Array>) -> Result<()> {
        let values = &mut self.values;
        match arg {
            Some(Array::Utf8(a)) => {
                let validity = a.validity.as_ref();
                for (i, &g) in group_ids.iter().enumerate() {
                    if validity.is_none_or(|bm| bm.get(i)) {
                        Self::fold(&mut values[g as usize], a.bytes(i));
                    }
                }
            }
            Some(Array::Dict(a)) => {
                for (i, &g) in group_ids.iter().enumerate() {
                    if let Some(v) = a.value(i) {
                        Self::fold(&mut values[g as usize], v);
                    }
                }
            }
            _ => return Err(unfit()),
        }
        Ok(())
    }

    fn merge(&mut self, other: &dyn State, group_map: &[u32]) -> Result<()> {
        for (&g, v) in group_map.iter().zip(&same::<Self>(other)?.values) {
            if let Some(v) = v {
                Self::fold(&mut self.values[g as usize], v.as_bytes());
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> Array {
        let mut offsets = vec![0u32];
        let mut data = Vec::new();
        for v in &self.values {
            if let Some(s) = v {
                data.extend_from_slice(s.as_bytes());
            }
            offsets.push(data.len() as u32);
        }
        let seen: Vec<bool> = self.values.iter().map(Option::is_some).collect();
        Array::Utf8(Utf8Array {
            offsets,
            data: data.into(),
            validity: validity(&seen),
        })
    }
}

fn extremum<M: Extremum>(input: DataType) -> Box<dyn State> {
    match input {
        DataType::Int64 => folded::<i64, M>(),
        DataType::Float64 => folded::<f64, M>(),
        DataType::Date32 => folded::<i32, M>(),
        DataType::Boolean => folded::<bool, M>(),
        DataType::Utf8 => Box::new(Strs::<M> {
            values: Vec::new(),
            order: PhantomData,
        }),
    }
}

/// Columnar accumulator: the state of one aggregate function across all
/// groups, stored as dense vectors indexed by group ordinal.
#[derive(Debug)]
pub struct GroupAcc {
    input: Option<DataType>,
    state: Box<dyn State>,
}

impl GroupAcc {
    /// Fresh (zero-group) accumulator for `func` over inputs of type
    /// `input` (`None` = `COUNT(*)`); accepts exactly the pairs
    /// [`AggFunc::result_type`] accepts.
    pub fn new(func: AggFunc, input: Option<DataType>) -> Result<GroupAcc> {
        let out = func.result_type(input)?;
        let state: Box<dyn State> = match func {
            AggFunc::Count => Box::new(Count(Vec::new())),
            AggFunc::Sum if out == DataType::Int64 => folded::<i64, Sum>(),
            AggFunc::Sum => folded::<f64, Sum>(),
            AggFunc::Avg if input == Some(DataType::Int64) => avg::<i64>(),
            AggFunc::Avg => avg::<f64>(),
            AggFunc::Min => extremum::<Min>(out),
            AggFunc::Max => extremum::<Max>(out),
        };
        Ok(GroupAcc { input, state })
    }

    /// Grow to `n` group slots (new slots start in the initial state).
    pub fn resize(&mut self, n: usize) {
        self.state.resize(n);
    }

    /// Fold a batch of rows into the accumulator. `group_ids[i]` is the
    /// dense group ordinal of row `i` (every ordinal must have a slot, see
    /// [`GroupAcc::resize`]); `arg` is the evaluated argument column
    /// (`None` = `COUNT(*)`).
    /// An argument of another type than the accumulator's, or of another
    /// length than `group_ids`, is an error.
    pub fn update(&mut self, group_ids: &[u32], arg: Option<&Array>) -> Result<()> {
        let found = arg.map(Array::data_type);
        if found != self.input {
            let name = |t: Option<DataType>| t.map_or("no argument".into(), |t| t.to_string());
            return Err(ColumnarError::type_mismatch(name(self.input), name(found)));
        }
        if let Some(a) = arg.filter(|a| a.len() != group_ids.len()) {
            return Err(ColumnarError::LengthMismatch {
                left: group_ids.len(),
                right: a.len(),
            });
        }
        self.state.update(group_ids, arg)
    }

    /// Merge another partial accumulator of the same kind. `group_map[g]`
    /// is the ordinal in `self` that `other`'s group `g` maps to; `self`
    /// must already be resized to cover every mapped ordinal.
    pub fn merge(&mut self, other: &GroupAcc, group_map: &[u32]) -> Result<()> {
        self.state.merge(&*other.state, group_map)
    }

    /// Produce the result column, one row per group in ordinal order.
    pub fn finish(self) -> Array {
        self.state.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Scalar;

    /// One-group helper: run `func` over the whole array as a single group.
    fn run(func: AggFunc, arr: &Array) -> Scalar {
        let mut acc = GroupAcc::new(func, Some(arr.data_type())).unwrap();
        acc.resize(1);
        let gids = vec![0u32; arr.len()];
        acc.update(&gids, Some(arr)).unwrap();
        acc.finish().scalar_at(0)
    }

    #[test]
    fn basic_aggregates() {
        let a = Array::from_i64(vec![3, 1, 4, 1, 5]);
        assert_eq!(run(AggFunc::Sum, &a), Scalar::Int64(14));
        assert_eq!(run(AggFunc::Min, &a), Scalar::Int64(1));
        assert_eq!(run(AggFunc::Max, &a), Scalar::Int64(5));
        assert_eq!(run(AggFunc::Count, &a), Scalar::Int64(5));
        assert_eq!(run(AggFunc::Avg, &a), Scalar::Float64(14.0 / 5.0));
    }

    #[test]
    fn float_aggregates() {
        let a = Array::from_f64(vec![1.5, -0.5]);
        assert_eq!(run(AggFunc::Sum, &a), Scalar::Float64(1.0));
        assert_eq!(run(AggFunc::Avg, &a), Scalar::Float64(0.5));
        assert_eq!(run(AggFunc::Min, &a), Scalar::Float64(-0.5));
    }

    #[test]
    fn nulls_are_skipped() {
        let mut b = crate::builder::ArrayBuilder::new(DataType::Int64);
        b.push_i64(10);
        b.push_null();
        b.push_i64(20);
        let a = b.finish();
        assert_eq!(run(AggFunc::Sum, &a), Scalar::Int64(30));
        assert_eq!(
            run(AggFunc::Count, &a),
            Scalar::Int64(2),
            "COUNT(x) skips NULL"
        );
        assert_eq!(run(AggFunc::Avg, &a), Scalar::Float64(15.0));
    }

    #[test]
    fn count_star_counts_nulls() {
        let mut acc = GroupAcc::new(AggFunc::Count, None).unwrap();
        acc.resize(1);
        acc.update(&[0, 0], None).unwrap();
        assert_eq!(acc.finish(), Array::from_i64(vec![2]));
    }

    #[test]
    fn empty_input_semantics() {
        let a = Array::from_i64(vec![]);
        assert_eq!(
            run(AggFunc::Sum, &a),
            Scalar::Null,
            "SUM of nothing is NULL"
        );
        assert_eq!(run(AggFunc::Count, &a), Scalar::Int64(0));
        assert_eq!(run(AggFunc::Avg, &a), Scalar::Null);
        assert_eq!(run(AggFunc::Min, &a), Scalar::Null);
    }

    #[test]
    fn per_group_accumulation() {
        // Rows interleave two groups; the accumulator keys on group id.
        let vals = Array::from_i64(vec![10, 1, 20, 2]);
        let gids = [0u32, 1, 0, 1];
        let mut acc = GroupAcc::new(AggFunc::Sum, Some(DataType::Int64)).unwrap();
        acc.resize(2);
        acc.update(&gids, Some(&vals)).unwrap();
        let arr = acc.finish();
        assert_eq!(arr.scalar_at(0), Scalar::Int64(30));
        assert_eq!(arr.scalar_at(1), Scalar::Int64(3));
        assert!(arr.validity().is_none(), "all groups seen → no validity");
    }

    #[test]
    fn merge_equals_single_pass() {
        // Split [1..10] into two halves, aggregate each, merge — must equal
        // aggregating the whole thing. This is the distributed-correctness
        // invariant the OCS partial-aggregation path relies on.
        let all = Array::from_i64((1..=10).collect());
        let left = Array::from_i64((1..=5).collect());
        let right = Array::from_i64((6..=10).collect());
        for func in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            let whole = run(func, &all);
            let mut a = GroupAcc::new(func, Some(DataType::Int64)).unwrap();
            a.resize(1);
            a.update(&vec![0u32; left.len()], Some(&left)).unwrap();
            let mut b = GroupAcc::new(func, Some(DataType::Int64)).unwrap();
            b.resize(1);
            b.update(&vec![0u32; right.len()], Some(&right)).unwrap();
            a.merge(&b, &[0]).unwrap();
            assert_eq!(a.finish().scalar_at(0), whole, "{func:?}");
        }
    }

    #[test]
    fn merge_maps_group_ordinals() {
        // other's group 0 lands on self's group 1 and vice versa.
        let mut a = GroupAcc::new(AggFunc::Count, None).unwrap();
        a.resize(2);
        a.update(&[0, 0, 1], None).unwrap();
        let mut b = GroupAcc::new(AggFunc::Count, None).unwrap();
        b.resize(2);
        b.update(&[0, 1, 1], None).unwrap();
        a.merge(&b, &[1, 0]).unwrap();
        // 2 + b's group 1 (2), then 1 + b's group 0 (1).
        assert_eq!(a.finish(), Array::from_i64(vec![4, 2]));
    }

    #[test]
    fn merge_mismatched_states_errors() {
        let mut a = GroupAcc::new(AggFunc::Count, None).unwrap();
        let b = GroupAcc::new(AggFunc::Avg, Some(DataType::Float64)).unwrap();
        assert!(a.merge(&b, &[]).is_err());
    }

    #[test]
    fn new_accepts_exactly_what_result_type_accepts() {
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Boolean,
            DataType::Utf8,
            DataType::Date32,
        ];
        let inputs = std::iter::once(None).chain(types.map(Some));
        for input in inputs {
            for func in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ] {
                assert_eq!(
                    GroupAcc::new(func, input).is_ok(),
                    func.result_type(input).is_ok(),
                    "{func:?} over {input:?}"
                );
            }
        }
    }

    #[test]
    fn mistyped_or_short_argument_is_an_error() {
        let mut acc = GroupAcc::new(AggFunc::Count, Some(DataType::Utf8)).unwrap();
        acc.resize(1);
        let ints = Array::from_i64(vec![1, 2]);
        assert!(
            acc.update(&[0, 0], Some(&ints)).is_err(),
            "COUNT(Utf8) fed Int64"
        );
        assert!(
            acc.update(&[0, 0], None).is_err(),
            "COUNT(x) fed no argument"
        );
        let mut acc = GroupAcc::new(AggFunc::Sum, Some(DataType::Float64)).unwrap();
        acc.resize(1);
        assert!(
            acc.update(&[0, 0], Some(&ints)).is_err(),
            "SUM(Float64) fed Int64"
        );
        let floats = Array::from_f64(vec![1.0]);
        assert!(
            acc.update(&[0, 0], Some(&floats)).is_err(),
            "one value, two rows"
        );
        // Nothing was folded in.
        assert_eq!(acc.finish().scalar_at(0), Scalar::Null);
    }

    #[test]
    fn min_max_strings_and_bools() {
        let s = Array::from_strs(["pear", "apple", "plum"]);
        assert_eq!(run(AggFunc::Min, &s), Scalar::Utf8("apple".into()));
        assert_eq!(run(AggFunc::Max, &s), Scalar::Utf8("plum".into()));
        // Byte order is `str` order, multi-byte characters included.
        let s = Array::from_strs(["é", "z", "ea"]);
        assert_eq!(run(AggFunc::Max, &s), Scalar::Utf8("é".into()));
        let entries = std::sync::Arc::new(crate::Utf8Array::from_strs(["pear", "apple"]));
        let d = crate::DictArray::try_new(vec![0, 1, 0], entries, None).unwrap();
        assert_eq!(
            run(AggFunc::Min, &Array::Dict(d)),
            Scalar::Utf8("apple".into())
        );
        let b = Array::from_bools(vec![true, false, true]);
        assert_eq!(run(AggFunc::Min, &b), Scalar::Boolean(false));
        assert_eq!(run(AggFunc::Max, &b), Scalar::Boolean(true));
    }

    #[test]
    fn sum_wraps_like_two_complement() {
        let a = Array::from_i64(vec![i64::MAX, 1]);
        assert_eq!(run(AggFunc::Sum, &a), Scalar::Int64(i64::MIN));
    }

    #[test]
    fn result_types() {
        assert_eq!(
            AggFunc::Sum.result_type(Some(DataType::Int64)).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggFunc::Avg.result_type(Some(DataType::Int64)).unwrap(),
            DataType::Float64
        );
        assert_eq!(AggFunc::Count.result_type(None).unwrap(), DataType::Int64);
        assert!(AggFunc::Sum.result_type(Some(DataType::Utf8)).is_err());
        assert!(AggFunc::Min.result_type(None).is_err());
        // AVG takes what SUM takes: a numeric argument, never `*`.
        assert_eq!(
            AggFunc::Avg.result_type(Some(DataType::Float64)).unwrap(),
            DataType::Float64
        );
        for t in [DataType::Utf8, DataType::Boolean, DataType::Date32] {
            assert!(AggFunc::Avg.result_type(Some(t)).is_err(), "{t}");
        }
        assert!(AggFunc::Avg.result_type(None).is_err());
    }

    #[test]
    fn from_name_parses() {
        assert_eq!(AggFunc::from_name("SUM"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
