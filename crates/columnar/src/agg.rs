//! Aggregate functions and type-specialized columnar accumulators.
//!
//! [`GroupAcc`] holds the running state for one aggregate across *all*
//! groups as dense per-group vectors, and consumes `(group_ids, argument
//! array)` pairs in tight type-specialized loops with a no-nulls fast path —
//! there is no per-row enum dispatch or scalar boxing on the hot path.
//!
//! Accumulators support the two-phase (partial → final) protocol a
//! distributed engine needs: `update` consumes input rows, `merge` combines
//! partial states column-wise (e.g. from different splits or storage
//! nodes), and `finish` produces one result column. `AVG` carries
//! (sum, count) state so the merge is exact. Group ids come from
//! [`crate::groupby::GroupIdMap`]; [`crate::groupby::GroupedAggregator`]
//! bundles both halves.

use crate::array::{Array, BooleanArray, Date32Array, Float64Array, Int64Array, Utf8Array};
use crate::bitmap::Bitmap;
use crate::datatype::{DataType, Scalar};
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

/// Columnar accumulator: state for one aggregate function across all
/// groups, stored as dense vectors indexed by group ordinal.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupAcc {
    /// COUNT state (`COUNT(*)` when updated with no argument).
    Count {
        /// Per-group row count.
        counts: Vec<i64>,
    },
    /// SUM over integers (wrapping, matching two's-complement SQL engines).
    SumI64 {
        /// Per-group running totals.
        sums: Vec<i64>,
        /// Whether the group saw any non-null input (SUM of no rows is NULL).
        seen: Vec<bool>,
    },
    /// SUM over floats.
    SumF64 {
        /// Per-group running totals.
        sums: Vec<f64>,
        /// Whether the group saw any non-null input.
        seen: Vec<bool>,
    },
    /// MIN/MAX over integers.
    MinMaxI64 {
        /// Per-group current extremum (unspecified until seen).
        values: Vec<i64>,
        /// Whether the group saw any non-null input.
        seen: Vec<bool>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
    /// MIN/MAX over floats (IEEE total order, matching `Scalar::total_cmp`).
    MinMaxF64 {
        /// Per-group current extremum.
        values: Vec<f64>,
        /// Whether the group saw any non-null input.
        seen: Vec<bool>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
    /// MIN/MAX over dates.
    MinMaxDate {
        /// Per-group current extremum.
        values: Vec<i32>,
        /// Whether the group saw any non-null input.
        seen: Vec<bool>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
    /// MIN/MAX over booleans (`false < true`).
    MinMaxBool {
        /// Per-group current extremum.
        values: Vec<bool>,
        /// Whether the group saw any non-null input.
        seen: Vec<bool>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
    /// MIN/MAX over strings (lexicographic byte order).
    MinMaxStr {
        /// Per-group current extremum, `None` until seen.
        values: Vec<Option<String>>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
    /// AVG state: exact (sum, count) pairs so the distributed merge is exact.
    Avg {
        /// Per-group running sums.
        sums: Vec<f64>,
        /// Per-group counts of non-null inputs.
        counts: Vec<i64>,
    },
}

impl GroupAcc {
    /// Fresh (zero-group) accumulator for `func` over inputs of type `input`.
    pub fn new(func: AggFunc, input: Option<DataType>) -> Result<GroupAcc> {
        Ok(match func {
            AggFunc::Count => GroupAcc::Count { counts: Vec::new() },
            AggFunc::Sum => match input {
                Some(DataType::Int64) => GroupAcc::SumI64 {
                    sums: Vec::new(),
                    seen: Vec::new(),
                },
                Some(DataType::Float64) => GroupAcc::SumF64 {
                    sums: Vec::new(),
                    seen: Vec::new(),
                },
                other => {
                    return Err(ColumnarError::Invalid(format!(
                        "SUM over {other:?} not supported"
                    )))
                }
            },
            AggFunc::Min | AggFunc::Max => {
                let is_min = func == AggFunc::Min;
                match input {
                    Some(DataType::Int64) => GroupAcc::MinMaxI64 {
                        values: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    },
                    Some(DataType::Float64) => GroupAcc::MinMaxF64 {
                        values: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    },
                    Some(DataType::Date32) => GroupAcc::MinMaxDate {
                        values: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    },
                    Some(DataType::Boolean) => GroupAcc::MinMaxBool {
                        values: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    },
                    Some(DataType::Utf8) => GroupAcc::MinMaxStr {
                        values: Vec::new(),
                        is_min,
                    },
                    None => {
                        return Err(ColumnarError::Invalid(format!(
                            "{} requires an argument",
                            func.sql()
                        )))
                    }
                }
            }
            AggFunc::Avg => GroupAcc::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
        })
    }

    /// Number of group slots currently allocated.
    pub fn num_groups(&self) -> usize {
        match self {
            GroupAcc::Count { counts } => counts.len(),
            GroupAcc::SumI64 { sums, .. } => sums.len(),
            GroupAcc::SumF64 { sums, .. } => sums.len(),
            GroupAcc::MinMaxI64 { values, .. } => values.len(),
            GroupAcc::MinMaxF64 { values, .. } => values.len(),
            GroupAcc::MinMaxDate { values, .. } => values.len(),
            GroupAcc::MinMaxBool { values, .. } => values.len(),
            GroupAcc::MinMaxStr { values, .. } => values.len(),
            GroupAcc::Avg { sums, .. } => sums.len(),
        }
    }

    /// Grow to `n` group slots (new slots start in the initial state).
    pub fn resize(&mut self, n: usize) {
        match self {
            GroupAcc::Count { counts } => counts.resize(n, 0),
            GroupAcc::SumI64 { sums, seen } => {
                sums.resize(n, 0);
                seen.resize(n, false);
            }
            GroupAcc::SumF64 { sums, seen } => {
                sums.resize(n, 0.0);
                seen.resize(n, false);
            }
            GroupAcc::MinMaxI64 { values, seen, .. } => {
                values.resize(n, 0);
                seen.resize(n, false);
            }
            GroupAcc::MinMaxF64 { values, seen, .. } => {
                values.resize(n, 0.0);
                seen.resize(n, false);
            }
            GroupAcc::MinMaxDate { values, seen, .. } => {
                values.resize(n, 0);
                seen.resize(n, false);
            }
            GroupAcc::MinMaxBool { values, seen, .. } => {
                values.resize(n, false);
                seen.resize(n, false);
            }
            GroupAcc::MinMaxStr { values, .. } => values.resize(n, None),
            GroupAcc::Avg { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
        }
    }

    /// Fold a batch of rows into the accumulator. `group_ids[i]` is the
    /// dense group ordinal of row `i` (all must be `< num_groups()`);
    /// `arg` is the evaluated argument column (`None` = `COUNT(*)`).
    ///
    /// An argument array whose type does not match the accumulator is
    /// ignored, mirroring the scalar path this replaced (planning computes
    /// types up front, so this does not happen in well-typed plans).
    pub fn update(&mut self, group_ids: &[u32], arg: Option<&Array>) {
        if let Some(a) = arg {
            assert_eq!(a.len(), group_ids.len(), "arg length");
        }
        match self {
            GroupAcc::Count { counts } => match arg {
                // COUNT(*) counts every row; COUNT(x) skips NULL x.
                None => {
                    for &g in group_ids {
                        counts[g as usize] += 1;
                    }
                }
                Some(a) => match a.validity() {
                    None => {
                        for &g in group_ids {
                            counts[g as usize] += 1;
                        }
                    }
                    Some(bm) => {
                        for (i, &g) in group_ids.iter().enumerate() {
                            if bm.get(i) {
                                counts[g as usize] += 1;
                            }
                        }
                    }
                },
            },
            GroupAcc::SumI64 { sums, seen } => {
                if let Some(Array::Int64(a)) = arg {
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        sums[g] = sums[g].wrapping_add(v);
                        seen[g] = true;
                    });
                }
            }
            GroupAcc::SumF64 { sums, seen } => match arg {
                Some(Array::Float64(a)) => {
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        sums[g] += v;
                        seen[g] = true;
                    });
                }
                // The scalar path accepted anything `as_f64` covers.
                Some(Array::Int64(a)) => {
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        sums[g] += v as f64;
                        seen[g] = true;
                    });
                }
                Some(Array::Date32(a)) => {
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        sums[g] += v as f64;
                        seen[g] = true;
                    });
                }
                _ => {}
            },
            GroupAcc::MinMaxI64 {
                values,
                seen,
                is_min,
            } => {
                if let Some(Array::Int64(a)) = arg {
                    let is_min = *is_min;
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        if !seen[g] || (is_min && v < values[g]) || (!is_min && v > values[g]) {
                            values[g] = v;
                            seen[g] = true;
                        }
                    });
                }
            }
            GroupAcc::MinMaxF64 {
                values,
                seen,
                is_min,
            } => {
                if let Some(Array::Float64(a)) = arg {
                    let is_min = *is_min;
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        let better = !seen[g]
                            || if is_min {
                                v.total_cmp(&values[g]).is_lt()
                            } else {
                                v.total_cmp(&values[g]).is_gt()
                            };
                        if better {
                            values[g] = v;
                            seen[g] = true;
                        }
                    });
                }
            }
            GroupAcc::MinMaxDate {
                values,
                seen,
                is_min,
            } => {
                if let Some(Array::Date32(a)) = arg {
                    let is_min = *is_min;
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        if !seen[g] || (is_min && v < values[g]) || (!is_min && v > values[g]) {
                            values[g] = v;
                            seen[g] = true;
                        }
                    });
                }
            }
            GroupAcc::MinMaxBool {
                values,
                seen,
                is_min,
            } => {
                if let Some(Array::Boolean(a)) = arg {
                    let is_min = *is_min;
                    let validity = a.validity.as_ref();
                    for (i, &g) in group_ids.iter().enumerate() {
                        if validity.map(|bm| bm.get(i)).unwrap_or(true) {
                            let g = g as usize;
                            let v = a.values.get(i);
                            if !seen[g]
                                || (is_min && !v && values[g])
                                || (!is_min && v && !values[g])
                            {
                                values[g] = v;
                                seen[g] = true;
                            }
                        }
                    }
                }
            }
            GroupAcc::MinMaxStr { values, is_min } => {
                // Bytes compare in `str` order, so only a new extremum is
                // turned back into a `String`.
                let is_min = *is_min;
                let mut fold = |g: u32, v: &[u8]| {
                    let g = g as usize;
                    let better = match &values[g] {
                        None => true,
                        Some(cur) => {
                            if is_min {
                                v < cur.as_bytes()
                            } else {
                                v > cur.as_bytes()
                            }
                        }
                    };
                    if better {
                        values[g] = Some(String::from_utf8_lossy(v).into_owned());
                    }
                };
                match arg {
                    Some(Array::Utf8(a)) => {
                        let validity = a.validity.as_ref();
                        for (i, &g) in group_ids.iter().enumerate() {
                            if validity.is_none_or(|bm| bm.get(i)) {
                                fold(g, a.bytes(i));
                            }
                        }
                    }
                    Some(Array::Dict(a)) => {
                        for (i, &g) in group_ids.iter().enumerate() {
                            if let Some(v) = a.value(i) {
                                fold(g, v);
                            }
                        }
                    }
                    _ => {}
                }
            }
            GroupAcc::Avg { sums, counts } => match arg {
                Some(Array::Float64(a)) => {
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        sums[g] += v;
                        counts[g] += 1;
                    });
                }
                Some(Array::Int64(a)) => {
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        sums[g] += v as f64;
                        counts[g] += 1;
                    });
                }
                Some(Array::Date32(a)) => {
                    update_loop!(group_ids, a.values, a.validity.as_ref(), |g, v| {
                        sums[g] += v as f64;
                        counts[g] += 1;
                    });
                }
                _ => {}
            },
        }
    }

    /// Merge another partial accumulator of the same kind. `group_map[g]`
    /// is the ordinal in `self` that `other`'s group `g` maps to; `self`
    /// must already be resized to cover every mapped ordinal.
    pub fn merge(&mut self, other: &GroupAcc, group_map: &[u32]) -> Result<()> {
        match (self, other) {
            (GroupAcc::Count { counts: a }, GroupAcc::Count { counts: b }) => {
                for (g, v) in group_map.iter().zip(b.iter()) {
                    a[*g as usize] += v;
                }
            }
            (GroupAcc::SumI64 { sums: a, seen: sa }, GroupAcc::SumI64 { sums: b, seen: sb }) => {
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    a[g] = a[g].wrapping_add(b[i]);
                    sa[g] |= sb[i];
                }
            }
            (GroupAcc::SumF64 { sums: a, seen: sa }, GroupAcc::SumF64 { sums: b, seen: sb }) => {
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    if sb[i] {
                        a[g] += b[i];
                        sa[g] = true;
                    }
                }
            }
            (
                GroupAcc::MinMaxI64 {
                    values: a,
                    seen: sa,
                    is_min,
                },
                GroupAcc::MinMaxI64 {
                    values: b,
                    seen: sb,
                    ..
                },
            ) => {
                let is_min = *is_min;
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    if sb[i] && (!sa[g] || (is_min && b[i] < a[g]) || (!is_min && b[i] > a[g])) {
                        a[g] = b[i];
                        sa[g] = true;
                    }
                }
            }
            (
                GroupAcc::MinMaxF64 {
                    values: a,
                    seen: sa,
                    is_min,
                },
                GroupAcc::MinMaxF64 {
                    values: b,
                    seen: sb,
                    ..
                },
            ) => {
                let is_min = *is_min;
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    if sb[i] {
                        let better = !sa[g]
                            || if is_min {
                                b[i].total_cmp(&a[g]).is_lt()
                            } else {
                                b[i].total_cmp(&a[g]).is_gt()
                            };
                        if better {
                            a[g] = b[i];
                            sa[g] = true;
                        }
                    }
                }
            }
            (
                GroupAcc::MinMaxDate {
                    values: a,
                    seen: sa,
                    is_min,
                },
                GroupAcc::MinMaxDate {
                    values: b,
                    seen: sb,
                    ..
                },
            ) => {
                let is_min = *is_min;
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    if sb[i] && (!sa[g] || (is_min && b[i] < a[g]) || (!is_min && b[i] > a[g])) {
                        a[g] = b[i];
                        sa[g] = true;
                    }
                }
            }
            (
                GroupAcc::MinMaxBool {
                    values: a,
                    seen: sa,
                    is_min,
                },
                GroupAcc::MinMaxBool {
                    values: b,
                    seen: sb,
                    ..
                },
            ) => {
                let is_min = *is_min;
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    if sb[i] && (!sa[g] || (is_min && !b[i] && a[g]) || (!is_min && b[i] && !a[g]))
                    {
                        a[g] = b[i];
                        sa[g] = true;
                    }
                }
            }
            (GroupAcc::MinMaxStr { values: a, is_min }, GroupAcc::MinMaxStr { values: b, .. }) => {
                let is_min = *is_min;
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    if let Some(v) = &b[i] {
                        let better = match &a[g] {
                            None => true,
                            Some(cur) => {
                                if is_min {
                                    v < cur
                                } else {
                                    v > cur
                                }
                            }
                        };
                        if better {
                            a[g] = Some(v.clone());
                        }
                    }
                }
            }
            (
                GroupAcc::Avg {
                    sums: a,
                    counts: ca,
                },
                GroupAcc::Avg {
                    sums: b,
                    counts: cb,
                },
            ) => {
                for (i, &g) in group_map.iter().enumerate() {
                    let g = g as usize;
                    // Skip empty partials so a `0.0` zero-state cannot
                    // erase the sign of a `-0.0` running sum.
                    if cb[i] > 0 {
                        a[g] += b[i];
                        ca[g] += cb[i];
                    }
                }
            }
            (me, other) => {
                return Err(ColumnarError::Invalid(format!(
                    "cannot merge aggregate states {me:?} and {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// The SQL result for one group (used by tests and scalar references).
    pub fn finish_one(&self, g: usize) -> Scalar {
        match self {
            GroupAcc::Count { counts } => Scalar::Int64(counts[g]),
            GroupAcc::SumI64 { sums, seen } => {
                if seen[g] {
                    Scalar::Int64(sums[g])
                } else {
                    Scalar::Null
                }
            }
            GroupAcc::SumF64 { sums, seen } => {
                if seen[g] {
                    Scalar::Float64(sums[g])
                } else {
                    Scalar::Null
                }
            }
            GroupAcc::MinMaxI64 { values, seen, .. } => {
                if seen[g] {
                    Scalar::Int64(values[g])
                } else {
                    Scalar::Null
                }
            }
            GroupAcc::MinMaxF64 { values, seen, .. } => {
                if seen[g] {
                    Scalar::Float64(values[g])
                } else {
                    Scalar::Null
                }
            }
            GroupAcc::MinMaxDate { values, seen, .. } => {
                if seen[g] {
                    Scalar::Date32(values[g])
                } else {
                    Scalar::Null
                }
            }
            GroupAcc::MinMaxBool { values, seen, .. } => {
                if seen[g] {
                    Scalar::Boolean(values[g])
                } else {
                    Scalar::Null
                }
            }
            GroupAcc::MinMaxStr { values, .. } => match &values[g] {
                Some(v) => Scalar::Utf8(v.clone()),
                None => Scalar::Null,
            },
            GroupAcc::Avg { sums, counts } => {
                if counts[g] == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float64(sums[g] / counts[g] as f64)
                }
            }
        }
    }

    /// Produce the result column, one row per group in ordinal order.
    pub fn finish(self) -> Array {
        fn validity_from(seen: Vec<bool>) -> Option<Bitmap> {
            if seen.iter().all(|&s| s) {
                None
            } else {
                Some(Bitmap::from_bools(&seen))
            }
        }
        match self {
            GroupAcc::Count { counts } => Array::from_i64(counts),
            GroupAcc::SumI64 { sums, seen } => Array::Int64(Int64Array {
                values: sums,
                validity: validity_from(seen),
            }),
            GroupAcc::SumF64 { sums, seen } => Array::Float64(Float64Array {
                values: sums,
                validity: validity_from(seen),
            }),
            GroupAcc::MinMaxI64 { values, seen, .. } => Array::Int64(Int64Array {
                values,
                validity: validity_from(seen),
            }),
            GroupAcc::MinMaxF64 { values, seen, .. } => Array::Float64(Float64Array {
                values,
                validity: validity_from(seen),
            }),
            GroupAcc::MinMaxDate { values, seen, .. } => Array::Date32(Date32Array {
                values,
                validity: validity_from(seen),
            }),
            GroupAcc::MinMaxBool { values, seen, .. } => Array::Boolean(BooleanArray {
                values: Bitmap::from_bools(&values),
                validity: validity_from(seen),
            }),
            GroupAcc::MinMaxStr { values, .. } => {
                let mut offsets = vec![0u32];
                let mut data = Vec::new();
                let mut valid = Vec::with_capacity(values.len());
                for v in &values {
                    if let Some(s) = v {
                        data.extend_from_slice(s.as_bytes());
                    }
                    offsets.push(data.len() as u32);
                    valid.push(v.is_some());
                }
                Array::Utf8(Utf8Array {
                    offsets,
                    data: data.into(),
                    validity: validity_from(valid),
                })
            }
            GroupAcc::Avg { sums, counts } => {
                let values = sums
                    .iter()
                    .zip(counts.iter())
                    .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect();
                let seen: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
                Array::Float64(Float64Array {
                    values,
                    validity: validity_from(seen),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-group helper: run `func` over the whole array as a single group.
    fn run(func: AggFunc, arr: &Array) -> Scalar {
        let mut acc = GroupAcc::new(func, Some(arr.data_type())).unwrap();
        acc.resize(1);
        let gids = vec![0u32; arr.len()];
        acc.update(&gids, Some(arr));
        acc.finish_one(0)
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
        acc.update(&[0, 0], None);
        assert_eq!(acc.finish_one(0), Scalar::Int64(2));
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
        acc.update(&gids, Some(&vals));
        assert_eq!(acc.finish_one(0), Scalar::Int64(30));
        assert_eq!(acc.finish_one(1), Scalar::Int64(3));
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
            a.update(&vec![0u32; left.len()], Some(&left));
            let mut b = GroupAcc::new(func, Some(DataType::Int64)).unwrap();
            b.resize(1);
            b.update(&vec![0u32; right.len()], Some(&right));
            a.merge(&b, &[0]).unwrap();
            assert_eq!(a.finish_one(0), whole, "{func:?}");
        }
    }

    #[test]
    fn merge_maps_group_ordinals() {
        // other's group 0 lands on self's group 1 and vice versa.
        let mut a = GroupAcc::new(AggFunc::Count, None).unwrap();
        a.resize(2);
        a.update(&[0, 0, 1], None);
        let mut b = GroupAcc::new(AggFunc::Count, None).unwrap();
        b.resize(2);
        b.update(&[0, 1, 1], None);
        a.merge(&b, &[1, 0]).unwrap();
        assert_eq!(a.finish_one(0), Scalar::Int64(4)); // 2 + b's group 1 (2)
        assert_eq!(a.finish_one(1), Scalar::Int64(2)); // 1 + b's group 0 (1)
    }

    #[test]
    fn merge_mismatched_states_errors() {
        let mut a = GroupAcc::new(AggFunc::Count, None).unwrap();
        let b = GroupAcc::new(AggFunc::Avg, Some(DataType::Float64)).unwrap();
        assert!(a.merge(&b, &[]).is_err());
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
