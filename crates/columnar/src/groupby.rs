//! Vectorized grouped aggregation: the group-id kernel and the
//! [`GroupedAggregator`] that every aggregation site in the system routes
//! through (engine split-phase partials, engine final-stage merge, and the
//! OCS storage executor).
//!
//! The hot path is batch-at-a-time: key columns are hashed with one
//! vectorized pass per column ([`crate::kernels::hash`]), then each row is
//! resolved to a dense `u32` group ordinal by [`GroupIdMap`] — an
//! open-addressed table storing `(hash, ordinal)` pairs that compares
//! candidate rows against *accumulated key columns*. No per-row byte-key
//! allocation, no double probe: one probe either finds the group or claims
//! the slot and appends the key row.
//!
//! A batch whose every key column has a cheap exact code for its rows takes
//! a shortcut when its tuples of codes are few, and fewer than its rows:
//! each distinct tuple goes through the probe once, at its first row, and
//! every row then reads its group from a table indexed by the tuple. The
//! codes are batch-local —
//! dictionary codes ([`crate::DictArray`]), `v - min` for integers and
//! dates, the bit for booleans, a small per-batch table for plain strings
//! of at most 7 bytes — and equal codes always mean equal keys; the probe
//! alone decides which group a key belongs to. Any other batch takes the
//! per-row path, where dictionary rows are hashed and compared by their
//! bytes exactly as plain Utf8 rows are, so both forms of a column meet in
//! one aggregation.
//!
//! Group ordinals are assigned in first-seen order and keys are exported in
//! ordinal order, so output order is deterministic (insertion order), which
//! the engine's tests and the distributed merge rely on.
//!
//! Float keys are canonicalized on the way in ([`canon_f64`]): `-0.0`
//! groups with `0.0` and every NaN bit pattern groups together — the same
//! normalization the hash kernel applies, so hash and equality agree.

use crate::agg::{AggFunc, GroupAcc};
use crate::array::{Array, BooleanArray, Date32Array, Float64Array, Int64Array, Utf8Array};
use crate::bitmap::Bitmap;
use crate::datatype::DataType;
use crate::error::{ColumnarError, Result};
use crate::kernels::hash::{canon_f64, hash_column_into, le_u64_short};
use crate::kernels::selection::take_indices;
use std::sync::OnceLock;

/// Sentinel ordinal marking an empty hash-table slot.
const EMPTY: u32 = u32::MAX;

/// Most code tuples (one table slot each) a batch's key columns may span
/// for the coded path; wider key sets, and key sets spanning as many tuples
/// as the batch has rows, take the per-row path.
const TUPLE_SLOTS: usize = 1 << 16;

/// Longest plain string the coded path packs, with its length, into one
/// word: 7 bytes leave the top byte for the length.
const SHORT_STR: u32 = 7;

/// Most distinct short strings one key column of a batch may hold on the
/// coded path; a column with more takes the per-row path.
const SHORT_STR_CODES: u32 = 256;

/// Slots of the per-batch short-string table, a power of two at least
/// twice [`SHORT_STR_CODES`], and the shift that maps a hash onto them.
const SHORT_STR_SLOTS: usize = 512;
const SHORT_STR_SHIFT: u32 = 64 - SHORT_STR_SLOTS.trailing_zeros();

/// A packed short string never has this value: its top byte is a length
/// of at most [`SHORT_STR`].
const NO_STR: u64 = u64::MAX;

/// Rows that went through the per-row probe, process-wide.
fn rows_probed() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::metrics().counter("columnar.groupby.rows_probed"))
}

/// Typed storage for one accumulated key column, appended in group-ordinal
/// order. Float values are stored canonicalized so equality is bitwise.
#[derive(Debug, Clone)]
enum KeyStore {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Boolean(Vec<bool>),
    Utf8 { offsets: Vec<u32>, data: Vec<u8> },
    Date32(Vec<i32>),
}

#[derive(Debug, Clone)]
struct KeyColumn {
    store: KeyStore,
    validity: Vec<bool>,
    has_null: bool,
}

impl KeyColumn {
    fn new(dt: DataType) -> KeyColumn {
        let store = match dt {
            DataType::Int64 => KeyStore::Int64(Vec::new()),
            DataType::Float64 => KeyStore::Float64(Vec::new()),
            DataType::Boolean => KeyStore::Boolean(Vec::new()),
            DataType::Utf8 => KeyStore::Utf8 {
                offsets: vec![0],
                data: Vec::new(),
            },
            DataType::Date32 => KeyStore::Date32(Vec::new()),
        };
        KeyColumn {
            store,
            validity: Vec::new(),
            has_null: false,
        }
    }

    /// Append row `row` of `arr` as a new group's key value. The array's
    /// type matches the store (checked once per batch by the caller).
    fn append_row(&mut self, arr: &Array, row: usize) {
        let valid = arr.is_valid(row);
        self.validity.push(valid);
        self.has_null |= !valid;
        match (&mut self.store, arr) {
            (KeyStore::Int64(v), Array::Int64(a)) => v.push(if valid { a.values[row] } else { 0 }),
            (KeyStore::Float64(v), Array::Float64(a)) => {
                v.push(if valid { canon_f64(a.values[row]) } else { 0.0 })
            }
            (KeyStore::Boolean(v), Array::Boolean(a)) => v.push(valid && a.values.get(row)),
            (KeyStore::Utf8 { offsets, data }, Array::Utf8(a)) => {
                if valid {
                    data.extend_from_slice(a.bytes(row));
                }
                offsets.push(data.len() as u32);
            }
            (KeyStore::Utf8 { offsets, data }, Array::Dict(a)) => {
                if let Some(v) = a.value(row) {
                    data.extend_from_slice(v);
                }
                offsets.push(data.len() as u32);
            }
            (KeyStore::Date32(v), Array::Date32(a)) => {
                v.push(if valid { a.values[row] } else { 0 })
            }
            _ => unreachable!("key column type checked at batch entry"),
        }
    }

    /// Does the stored key for group `ord` equal row `row` of `arr`?
    /// NULL equals NULL (SQL GROUP BY semantics); floats compare by
    /// canonical bits so `-0.0 == 0.0` and `NaN == NaN`.
    #[inline]
    fn eq_row(&self, ord: usize, arr: &Array, row: usize) -> bool {
        let valid = arr.is_valid(row);
        if self.validity[ord] != valid {
            return false;
        }
        if !valid {
            return true;
        }
        match (&self.store, arr) {
            (KeyStore::Int64(v), Array::Int64(a)) => v[ord] == a.values[row],
            (KeyStore::Float64(v), Array::Float64(a)) => {
                v[ord].to_bits() == canon_f64(a.values[row]).to_bits()
            }
            (KeyStore::Boolean(v), Array::Boolean(a)) => v[ord] == a.values.get(row),
            (KeyStore::Utf8 { offsets, data }, Array::Utf8(a)) => {
                data[offsets[ord] as usize..offsets[ord + 1] as usize] == *a.bytes(row)
            }
            (KeyStore::Utf8 { offsets, data }, Array::Dict(a)) => {
                a.value(row) == Some(&data[offsets[ord] as usize..offsets[ord + 1] as usize])
            }
            (KeyStore::Date32(v), Array::Date32(a)) => v[ord] == a.values[row],
            _ => unreachable!("key column type checked at batch entry"),
        }
    }

    /// Export the accumulated keys as an array in group-ordinal order.
    fn to_array(&self) -> Array {
        let validity = if self.has_null {
            Some(Bitmap::from_bools(&self.validity))
        } else {
            None
        };
        match &self.store {
            KeyStore::Int64(v) => Array::Int64(Int64Array {
                values: v.clone(),
                validity,
            }),
            KeyStore::Float64(v) => Array::Float64(Float64Array {
                values: v.clone(),
                validity,
            }),
            KeyStore::Boolean(v) => Array::Boolean(BooleanArray {
                values: Bitmap::from_bools(v),
                validity,
            }),
            KeyStore::Utf8 { offsets, data } => Array::Utf8(Utf8Array {
                offsets: offsets.clone(),
                data: data.clone().into(),
                validity,
            }),
            KeyStore::Date32(v) => Array::Date32(Date32Array {
                values: v.clone(),
                validity,
            }),
        }
    }
}

/// Maps rows to dense group ordinals, accumulating distinct keys in
/// first-seen order.
#[derive(Debug, Clone)]
pub struct GroupIdMap {
    key_types: Vec<DataType>,
    keys: Vec<KeyColumn>,
    /// Open-addressed `(hash, ordinal)` slots; capacity is a power of two.
    slots: Vec<(u64, u32)>,
    len: usize,
    hash_buf: Vec<u64>,
    /// Per-row code tuples, tuple → group ordinal, and one column's
    /// short-string → code table, on the coded path (reused across
    /// batches).
    tuple_buf: Vec<u32>,
    tuple_table: Vec<u32>,
    str_table: Vec<(u64, u32)>,
}

impl GroupIdMap {
    /// A map keyed on columns of `key_types` (empty = one global group).
    pub fn new(key_types: Vec<DataType>) -> GroupIdMap {
        let keys = key_types.iter().map(|&dt| KeyColumn::new(dt)).collect();
        GroupIdMap {
            key_types,
            keys,
            slots: vec![(0, EMPTY); 16],
            len: 0,
            hash_buf: Vec::new(),
            tuple_buf: Vec::new(),
            tuple_table: Vec::new(),
            str_table: Vec::new(),
        }
    }

    /// Key column types this map groups on.
    pub fn key_types(&self) -> &[DataType] {
        &self.key_types
    }

    /// Number of distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.len
    }

    /// Resolve each of `num_rows` rows of `keys` to its dense group
    /// ordinal, appending ids to `out` (cleared first). Unseen keys are
    /// assigned fresh ordinals in first-seen order. With zero key columns
    /// every row maps to the single global group `0`.
    pub fn group_ids(
        &mut self,
        keys: &[&Array],
        num_rows: usize,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        if keys.len() != self.key_types.len() {
            return Err(ColumnarError::Invalid(format!(
                "group key arity mismatch: expected {}, got {}",
                self.key_types.len(),
                keys.len()
            )));
        }
        for (arr, &dt) in keys.iter().zip(self.key_types.iter()) {
            if arr.data_type() != dt {
                return Err(ColumnarError::type_mismatch(dt, arr.data_type()));
            }
            if arr.len() != num_rows {
                return Err(ColumnarError::Invalid(format!(
                    "group key column length {} != batch rows {num_rows}",
                    arr.len()
                )));
            }
        }
        out.clear();
        out.reserve(num_rows);
        if self.key_types.is_empty() {
            // Global aggregate: one group holds every row.
            if num_rows > 0 && self.len == 0 {
                self.len = 1;
            }
            out.resize(num_rows, 0);
            return Ok(());
        }
        if !self.coded_group_ids(keys, num_rows, out)? {
            self.probe_rows(keys, num_rows, out)?;
        }
        Ok(())
    }

    /// The per-row path: hash every row, then probe for each in turn. This
    /// loop is the probe's only call site, the coded path included: given a
    /// second one, the compiler stopped inlining the probe here and Int64
    /// keys resolved about a third slower.
    fn probe_rows(&mut self, keys: &[&Array], num_rows: usize, out: &mut Vec<u32>) -> Result<()> {
        rows_probed().add(num_rows as u64);
        self.hash_buf.clear();
        self.hash_buf.resize(num_rows, 0);
        for arr in keys {
            hash_column_into(arr, &mut self.hash_buf)?;
        }
        for row in 0..num_rows {
            let hash = self.hash_buf[row];
            out.push(self.probe_insert(hash, keys, row));
        }
        Ok(())
    }

    /// The coded path, taken (returning true) when every key column has a
    /// batch-local code per row ([`add_codes`]) and the code tuples fit in
    /// [`TUPLE_SLOTS`] and number fewer than the batch's rows. A row's
    /// tuple is a mixed-radix index into a table.
    /// The first row of each tuple, and only those, go through
    /// [`GroupIdMap::probe_rows`], so ordinals, first-seen order, hashing
    /// and equality are the per-row path's; every row then reads its
    /// ordinal from the table.
    fn coded_group_ids(
        &mut self,
        keys: &[&Array],
        num_rows: usize,
        out: &mut Vec<u32>,
    ) -> Result<bool> {
        let mut tuples = std::mem::take(&mut self.tuple_buf);
        tuples.clear();
        tuples.resize(num_rows, 0);
        // Fewer tuples than rows: a batch whose every row may be a key of
        // its own (a partial aggregate being merged) would pay for the
        // table and the first-row gather and save no probe.
        let limit = TUPLE_SLOTS.min(num_rows.saturating_sub(1));
        let mut slots = 1usize;
        for arr in keys {
            let room = limit / slots;
            match add_codes(arr, slots as u32, room, &mut tuples, &mut self.str_table) {
                Some(radix) if radix <= room => slots *= radix.max(1),
                _ => {
                    self.tuple_buf = tuples;
                    return Ok(false);
                }
            }
        }
        // Each tuple's slot first names its first row's place in `firsts`,
        // then that row's ordinal.
        let mut table = std::mem::take(&mut self.tuple_table);
        table.clear();
        table.resize(slots, EMPTY);
        let mut firsts = Vec::new();
        for (row, &t) in tuples.iter().enumerate() {
            if table[t as usize] == EMPTY {
                table[t as usize] = firsts.len() as u32;
                firsts.push(row);
            }
        }
        let first_keys = keys
            .iter()
            .map(|k| take_indices(k, &firsts))
            .collect::<Result<Vec<_>>>()?;
        let first_refs: Vec<&Array> = first_keys.iter().collect();
        let mut ords = Vec::with_capacity(firsts.len());
        self.probe_rows(&first_refs, firsts.len(), &mut ords)?;
        for slot in table.iter_mut().filter(|s| **s != EMPTY) {
            *slot = ords[*slot as usize];
        }
        out.extend(tuples.iter().map(|&t| table[t as usize]));
        self.tuple_buf = tuples;
        self.tuple_table = table;
        Ok(true)
    }

    /// Find the group for `(keys, row)` or claim a fresh ordinal.
    #[inline]
    fn probe_insert(&mut self, hash: u64, keys: &[&Array], row: usize) -> u32 {
        let mask = self.slots.len() - 1;
        let mut idx = (hash as usize) & mask;
        loop {
            let (h, ord) = self.slots[idx];
            if ord == EMPTY {
                let new_ord = self.len as u32;
                for (kc, arr) in self.keys.iter_mut().zip(keys.iter()) {
                    kc.append_row(arr, row);
                }
                self.slots[idx] = (hash, new_ord);
                self.len += 1;
                // Keep load factor under ~7/8.
                if self.len * 8 >= self.slots.len() * 7 {
                    self.grow();
                }
                return new_ord;
            }
            if h == hash {
                let ord_us = ord as usize;
                if self
                    .keys
                    .iter()
                    .zip(keys.iter())
                    .all(|(kc, arr)| kc.eq_row(ord_us, arr, row))
                {
                    return ord;
                }
            }
            idx = (idx + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let mut slots = vec![(0u64, EMPTY); new_cap];
        let mask = new_cap - 1;
        for &(h, ord) in self.slots.iter().filter(|&&(_, o)| o != EMPTY) {
            let mut idx = (h as usize) & mask;
            while slots[idx].1 != EMPTY {
                idx = (idx + 1) & mask;
            }
            slots[idx] = (h, ord);
        }
        self.slots = slots;
    }

    /// Force the single global group to exist (keyless aggregation over
    /// zero rows still emits one row of initial states).
    pub fn ensure_global_group(&mut self) {
        assert!(self.key_types.is_empty(), "only valid for keyless maps");
        if self.len == 0 {
            self.len = 1;
        }
    }

    /// Export the accumulated key columns, one row per group, in
    /// first-seen ordinal order.
    pub fn key_arrays(&self) -> Vec<Array> {
        self.keys.iter().map(|kc| kc.to_array()).collect()
    }
}

/// Add each row's code in `arr`, times `stride`, to its tuple in `tuples`
/// and return the column's radix: one more than its largest code. Equal
/// codes mean equal keys, and a null is a code of its own. `None` when the
/// column has no cheap exact code in this batch (Float64 keys, an integer
/// span past `room`, a string longer than [`SHORT_STR`], more than
/// [`SHORT_STR_CODES`] distinct strings); a returned radix may still pass
/// `room`, which the caller checks. `stride * radix` stays within
/// [`TUPLE_SLOTS`] times [`SHORT_STR_CODES`], far inside `u32`.
fn add_codes(
    arr: &Array,
    stride: u32,
    room: usize,
    tuples: &mut [u32],
    str_table: &mut Vec<(u64, u32)>,
) -> Option<usize> {
    match arr {
        Array::Dict(d) => {
            let radix = d.entries().len() + 1;
            if radix > room {
                return None;
            }
            let null = d.entries().len() as u32;
            add_each(
                tuples,
                stride,
                d.validity(),
                null,
                d.codes().iter().copied(),
            );
            Some(radix)
        }
        Array::Int64(a) => add_span_codes(tuples, stride, room, a.validity.as_ref(), &a.values),
        Array::Date32(a) => add_span_codes(tuples, stride, room, a.validity.as_ref(), &a.values),
        Array::Boolean(a) => {
            let values = (0..a.values.len()).map(|i| u32::from(a.values.get(i)));
            add_each(tuples, stride, a.validity.as_ref(), 2, values);
            Some(2 + usize::from(a.validity.is_some()))
        }
        Array::Utf8(a) => add_short_str_codes(tuples, stride, a, str_table),
        Array::Float64(_) => None,
    }
}

/// `tuples[i] += code * stride` for each row's code, `null` under a null.
#[inline]
fn add_each(
    tuples: &mut [u32],
    stride: u32,
    validity: Option<&Bitmap>,
    null: u32,
    codes: impl Iterator<Item = u32>,
) {
    let pairs = tuples.iter_mut().zip(codes);
    match validity {
        None => pairs.for_each(|(t, c)| *t += c * stride),
        Some(v) => {
            for (i, (t, c)) in pairs.enumerate() {
                *t += if v.get(i) { c } else { null } * stride;
            }
        }
    }
}

/// Integer and date codes: `v - min` over the valid rows' span, a null one
/// past it. The span is a checked subtraction, so a batch holding both
/// `i64::MIN` and `i64::MAX` has no code.
fn add_span_codes<T: Copy + Into<i64>>(
    tuples: &mut [u32],
    stride: u32,
    room: usize,
    validity: Option<&Bitmap>,
    values: &[T],
) -> Option<usize> {
    let bounds = |(lo, hi): (i64, i64), v: T| (lo.min(v.into()), hi.max(v.into()));
    let (lo, hi) = match validity {
        None => values.iter().copied().fold((i64::MAX, i64::MIN), bounds),
        Some(bm) => (values.iter().copied().enumerate())
            .filter(|&(i, _)| bm.get(i))
            .map(|(_, v)| v)
            .fold((i64::MAX, i64::MIN), bounds),
    };
    // No valid row: every row is the null code 0.
    let span = if lo > hi {
        0
    } else {
        usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?
    };
    let radix = span + usize::from(validity.is_some());
    if radix > room {
        return None;
    }
    let codes = values.iter().map(|&v| (v.into().wrapping_sub(lo)) as u32);
    add_each(tuples, stride, validity, span as u32, codes);
    Some(radix)
}

/// Plain string codes, when every value has at most [`SHORT_STR`] bytes
/// (read from the offsets before any row is coded): each value's bytes
/// packed with its length are one word, numbered in first-seen order by a
/// small open-addressed table. A null is code 0 when the column can hold
/// one. Past [`SHORT_STR_CODES`] distinct values the column has no code.
fn add_short_str_codes(
    tuples: &mut [u32],
    stride: u32,
    a: &Utf8Array,
    table: &mut Vec<(u64, u32)>,
) -> Option<usize> {
    if a.offsets
        .windows(2)
        .any(|w| w[1].wrapping_sub(w[0]) > SHORT_STR)
    {
        return None;
    }
    table.clear();
    table.resize(SHORT_STR_SLOTS, (NO_STR, 0));
    let first = u32::from(a.validity.is_some());
    let mut next = first;
    for (i, t) in tuples.iter_mut().enumerate() {
        let code = if a.validity.as_ref().is_none_or(|v| v.get(i)) {
            let b = a.bytes(i);
            let word = le_u64_short(b) | (b.len() as u64) << 56;
            let mut slot = (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> SHORT_STR_SHIFT) as usize;
            loop {
                let (k, c) = table[slot];
                if k == word {
                    break c;
                }
                if k == NO_STR {
                    if next - first == SHORT_STR_CODES {
                        return None;
                    }
                    table[slot] = (word, next);
                    next += 1;
                    break next - 1;
                }
                slot = (slot + 1) & (SHORT_STR_SLOTS - 1);
            }
        } else {
            0
        };
        *t += code * stride;
    }
    Some(next as usize)
}

/// A complete vectorized grouped aggregation: group-id resolution plus one
/// columnar accumulator per aggregate. This is the single aggregation
/// engine shared by the query engine (partial and final phases) and the
/// OCS storage executor.
#[derive(Debug)]
pub struct GroupedAggregator {
    map: GroupIdMap,
    accs: Vec<GroupAcc>,
    gid_buf: Vec<u32>,
}

impl GroupedAggregator {
    /// Build an aggregator grouping on `key_types` computing `aggs`, each
    /// given as `(function, argument type)` (`None` argument = `COUNT(*)`).
    pub fn new(
        key_types: Vec<DataType>,
        aggs: &[(AggFunc, Option<DataType>)],
    ) -> Result<GroupedAggregator> {
        let accs = aggs
            .iter()
            .map(|&(func, input)| GroupAcc::new(func, input))
            .collect::<Result<Vec<_>>>()?;
        Ok(GroupedAggregator {
            map: GroupIdMap::new(key_types),
            accs,
            gid_buf: Vec::new(),
        })
    }

    /// Number of distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.map.num_groups()
    }

    /// Fold a batch in: `keys` are the evaluated key columns, `args[i]` the
    /// evaluated argument of aggregate `i` (`None` = `COUNT(*)`); all
    /// arrays must have `num_rows` rows.
    pub fn update(
        &mut self,
        keys: &[&Array],
        args: &[Option<&Array>],
        num_rows: usize,
    ) -> Result<()> {
        let _t = obs::KernelTimer::start("columnar.groupby.update_s");
        if args.len() != self.accs.len() {
            return Err(ColumnarError::Invalid(format!(
                "aggregate arity mismatch: expected {}, got {}",
                self.accs.len(),
                args.len()
            )));
        }
        let mut gids = std::mem::take(&mut self.gid_buf);
        self.map.group_ids(keys, num_rows, &mut gids)?;
        let n = self.map.num_groups();
        for (acc, arg) in self.accs.iter_mut().zip(args.iter()) {
            acc.resize(n);
            acc.update(&gids, *arg)?;
        }
        self.gid_buf = gids;
        Ok(())
    }

    /// Merge a partial aggregator (same keys, same aggregates) into this
    /// one — the distributed combine. `other`'s groups are appended in
    /// `other`'s first-seen order when unseen here, preserving
    /// deterministic insertion-order output.
    pub fn merge(&mut self, other: &GroupedAggregator) -> Result<()> {
        if other.map.key_types() != self.map.key_types() {
            return Err(ColumnarError::Invalid(
                "cannot merge aggregators with different group keys".into(),
            ));
        }
        let other_groups = other.map.num_groups();
        if other_groups == 0 {
            return Ok(());
        }
        let other_keys = other.map.key_arrays();
        let key_refs: Vec<&Array> = other_keys.iter().collect();
        let mut group_map = std::mem::take(&mut self.gid_buf);
        self.map
            .group_ids(&key_refs, other_groups, &mut group_map)?;
        let n = self.map.num_groups();
        for (acc, other_acc) in self.accs.iter_mut().zip(other.accs.iter()) {
            acc.resize(n);
            acc.merge(other_acc, &group_map)?;
        }
        self.gid_buf = group_map;
        Ok(())
    }

    /// Force the single global group to exist (keyless aggregation over
    /// zero rows emits one row of initial states).
    pub fn ensure_global_group(&mut self) {
        self.map.ensure_global_group();
        let n = self.map.num_groups();
        for acc in &mut self.accs {
            acc.resize(n);
        }
    }

    /// Produce `(key columns, measure columns)`, one row per group in
    /// first-seen order.
    pub fn finish(self) -> (Vec<Array>, Vec<Array>) {
        let keys = self.map.key_arrays();
        let measures = self.accs.into_iter().map(|acc| acc.finish()).collect();
        (keys, measures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ArrayBuilder;
    use crate::datatype::Scalar;

    #[test]
    fn group_ids_dense_first_seen() {
        let mut map = GroupIdMap::new(vec![DataType::Int64]);
        let keys = Array::from_i64(vec![7, 3, 7, 9, 3]);
        let mut out = Vec::new();
        map.group_ids(&[&keys], 5, &mut out).unwrap();
        assert_eq!(out, vec![0, 1, 0, 2, 1]);
        assert_eq!(map.num_groups(), 3);
        let exported = map.key_arrays();
        assert_eq!(exported[0], Array::from_i64(vec![7, 3, 9]));
    }

    #[test]
    fn group_ids_multi_column_and_nulls() {
        let mut k1 = ArrayBuilder::new(DataType::Int64);
        k1.push_i64(1);
        k1.push_null();
        k1.push_i64(1);
        k1.push_null();
        let k1 = k1.finish();
        let k2 = Array::from_strs(["a", "a", "a", "a"]);
        let mut map = GroupIdMap::new(vec![DataType::Int64, DataType::Utf8]);
        let mut out = Vec::new();
        map.group_ids(&[&k1, &k2], 4, &mut out).unwrap();
        assert_eq!(out, vec![0, 1, 0, 1], "NULL keys form one group");
    }

    #[test]
    fn float_keys_normalize() {
        let keys = Array::from_f64(vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            1.5,
        ]);
        let mut map = GroupIdMap::new(vec![DataType::Float64]);
        let mut out = Vec::new();
        map.group_ids(&[&keys], 5, &mut out).unwrap();
        assert_eq!(out, vec![0, 0, 1, 1, 2], "-0.0 == 0.0 and NaN == NaN");
    }

    #[test]
    fn keyless_map_is_one_group() {
        let mut map = GroupIdMap::new(vec![]);
        let mut out = Vec::new();
        map.group_ids(&[], 3, &mut out).unwrap();
        assert_eq!(out, vec![0, 0, 0]);
        assert_eq!(map.num_groups(), 1);
    }

    #[test]
    fn many_groups_survive_growth() {
        let n = 10_000i64;
        let keys = Array::from_i64((0..n).collect());
        let mut map = GroupIdMap::new(vec![DataType::Int64]);
        let mut out = Vec::new();
        map.group_ids(&[&keys], n as usize, &mut out).unwrap();
        assert_eq!(map.num_groups(), n as usize);
        // Every row got its own ordinal, in order.
        assert!(out.iter().enumerate().all(|(i, &g)| g as usize == i));
        // Second pass resolves to the same ordinals without inserting.
        let mut out2 = Vec::new();
        map.group_ids(&[&keys], n as usize, &mut out2).unwrap();
        assert_eq!(out, out2);
        assert_eq!(map.num_groups(), n as usize);
    }

    #[test]
    fn aggregator_end_to_end() {
        let keys = Array::from_strs(["a", "b", "a", "b", "a"]);
        let vals = Array::from_i64(vec![1, 10, 2, 20, 3]);
        let mut agg = GroupedAggregator::new(
            vec![DataType::Utf8],
            &[
                (AggFunc::Sum, Some(DataType::Int64)),
                (AggFunc::Count, None),
            ],
        )
        .unwrap();
        agg.update(&[&keys], &[Some(&vals), None], 5).unwrap();
        let (k, m) = agg.finish();
        assert_eq!(k[0], Array::from_strs(["a", "b"]));
        assert_eq!(m[0], Array::from_i64(vec![6, 30]));
        assert_eq!(m[1], Array::from_i64(vec![3, 2]));
    }

    #[test]
    fn mistyped_argument_is_an_error() {
        let keys = Array::from_i64(vec![1, 2]);
        let mut agg = GroupedAggregator::new(
            vec![DataType::Int64],
            &[(AggFunc::Sum, Some(DataType::Int64))],
        )
        .unwrap();
        let floats = Array::from_f64(vec![1.0, 2.0]);
        assert!(agg.update(&[&keys], &[Some(&floats)], 2).is_err());
        let short = Array::from_i64(vec![1]);
        assert!(agg.update(&[&keys], &[Some(&short)], 2).is_err());
    }

    #[test]
    fn merge_appends_unseen_groups_in_other_order() {
        let mut left =
            GroupedAggregator::new(vec![DataType::Int64], &[(AggFunc::Count, None)]).unwrap();
        left.update(&[&Array::from_i64(vec![1, 2])], &[None], 2)
            .unwrap();
        let mut right =
            GroupedAggregator::new(vec![DataType::Int64], &[(AggFunc::Count, None)]).unwrap();
        right
            .update(&[&Array::from_i64(vec![3, 2, 3])], &[None], 3)
            .unwrap();
        left.merge(&right).unwrap();
        let (k, m) = left.finish();
        // Left's groups first (1, 2), then right's unseen groups (3).
        assert_eq!(k[0], Array::from_i64(vec![1, 2, 3]));
        assert_eq!(m[0], Array::from_i64(vec![1, 2, 2]));
    }

    #[test]
    fn global_aggregate_over_zero_rows() {
        let mut agg = GroupedAggregator::new(
            vec![],
            &[
                (AggFunc::Count, None),
                (AggFunc::Sum, Some(DataType::Int64)),
            ],
        )
        .unwrap();
        agg.ensure_global_group();
        let (k, m) = agg.finish();
        assert!(k.is_empty());
        assert_eq!(m[0].scalar_at(0), Scalar::Int64(0));
        assert_eq!(m[1].scalar_at(0), Scalar::Null, "SUM of no rows is NULL");
    }

    #[test]
    fn dictionary_keys_group_like_their_plain_form() {
        use crate::dict::DictArray;
        use std::sync::Arc;
        let entries = Arc::new(Utf8Array::from_strs(["x", "y", ""]));
        let validity = Some(Bitmap::from_bools(&[true, true, false, true, true, false]));
        let dict = DictArray::try_new(vec![1, 0, 5, 1, 2, 0], entries, validity).unwrap();
        let dict = Array::Dict(dict);
        let plain = Array::Utf8(dict.to_utf8().unwrap().into_owned());
        let ints = Array::from_i64(vec![1, 1, 1, 1, 1, 1]);
        // Per-tuple path, per-row path over the same bytes, and a mixed key
        // set, each seeing the other form next: same ordinals throughout,
        // NULL a group of its own and apart from "".
        for (first, second, key_types) in [
            ([&dict, &dict], [&plain, &plain], [DataType::Utf8; 2]),
            ([&plain, &plain], [&dict, &dict], [DataType::Utf8; 2]),
            (
                [&ints, &dict],
                [&ints, &plain],
                [DataType::Int64, DataType::Utf8],
            ),
        ] {
            let mut map = GroupIdMap::new(key_types.to_vec());
            let mut out = Vec::new();
            map.group_ids(&first, 6, &mut out).unwrap();
            assert_eq!(out, vec![0, 1, 2, 0, 3, 2]);
            map.group_ids(&second, 6, &mut out).unwrap();
            assert_eq!(out, vec![0, 1, 2, 0, 3, 2]);
            let keys = &map.key_arrays()[1];
            let s = |v: &str| Scalar::Utf8(v.into());
            let rows: Vec<Scalar> = (0..keys.len()).map(|g| keys.scalar_at(g)).collect();
            assert_eq!(rows, vec![s("y"), s("x"), Scalar::Null, s("")]);
        }
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut map = GroupIdMap::new(vec![DataType::Int64]);
        let keys = Array::from_f64(vec![1.0]);
        let mut out = Vec::new();
        assert!(map.group_ids(&[&keys], 1, &mut out).is_err());
    }

    /// The table the coded path built for `copies` copies of one batch
    /// into a fresh map: its slot count, or 0 when the batch took the
    /// per-row path.
    fn coded_slots(keys: &[Array], copies: usize) -> usize {
        let cols: Vec<Array> = keys
            .iter()
            .map(|k| Array::concat(&vec![k; copies]).unwrap())
            .collect();
        let refs: Vec<&Array> = cols.iter().collect();
        let types = refs.iter().map(|k| k.data_type()).collect();
        let mut map = GroupIdMap::new(types);
        let mut out = Vec::new();
        map.group_ids(&refs, refs[0].len(), &mut out).unwrap();
        map.tuple_table.len()
    }

    #[test]
    fn coded_path_takes_each_cheap_key_type() {
        let mut nullable = ArrayBuilder::new(DataType::Int64);
        nullable.push_i64(10);
        nullable.push_null();
        nullable.push_i64(12);
        let nullable = nullable.finish();
        let edge = (TUPLE_SLOTS - 1) as i64;
        // Just more rows than the widest table.
        let many_rows = TUPLE_SLOTS / 2 + 1;
        let many: Vec<String> = (0..=SHORT_STR_CODES).map(|i| i.to_string()).collect();
        for (keys, copies, slots) in [
            (vec![Array::from_i64(vec![5, 7, 5])], 3, 3),
            (vec![Array::from_i64(vec![5, 7, 5])], 1, 0),
            (vec![nullable], 3, 4),
            (
                vec![Array::from_i64(vec![-3, -3 + edge])],
                many_rows,
                TUPLE_SLOTS,
            ),
            (vec![Array::from_i64(vec![-3, -2 + edge])], many_rows, 0),
            (vec![Array::from_i64(vec![i64::MIN, i64::MAX])], 3, 0),
            (vec![Array::from_dates(vec![-1, 1, 0])], 3, 3),
            (vec![Array::from_bools(vec![true, false])], 3, 2),
            (
                vec![Array::from_strs(["R", "A", "", "a\0", "a", "1234567"])],
                3,
                6,
            ),
            (vec![Array::from_strs(["12345678"])], 3, 0),
            (
                vec![Array::from_strs(many.iter().map(|s| s.as_str()))],
                3,
                0,
            ),
            (vec![Array::from_f64(vec![1.0])], 3, 0),
            (
                vec![Array::from_strs(["N", "R"]), Array::from_strs(["O", "F"])],
                3,
                4,
            ),
            (vec![Array::from_strs(["x"]), Array::from_strs(["x"])], 3, 1),
        ] {
            assert_eq!(coded_slots(&keys, copies), slots, "{keys:?} x {copies}");
        }
    }

    mod differential {
        //! The coded path against the per-row path it stands for: the same
        //! batches into two maps, one resolving through `group_ids`, the
        //! other through `probe_rows` alone, must give the same ordinals
        //! for every batch and export the same keys. With equal ordinals the
        //! aggregates see the same group ids, so `finish` agrees too.

        use super::*;
        use crate::dict::DictArray;
        use proptest::prelude::*;
        use std::sync::Arc;

        /// SplitMix64, so one proptest seed drives a whole case.
        struct Gen(u64);

        impl Gen {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }

            fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
                pool[self.below(pool.len())]
            }
        }

        /// Short strings of 0–8 bytes: an embedded NUL, "a" next to "a\0",
        /// multi-byte characters, and one 8-byte value that has no code.
        const STRS: [&str; 12] = [
            "",
            "a",
            "a\0",
            "\0",
            "ab",
            "N",
            "R",
            "abcdefg",
            "é",
            "日本",
            "\0\0\0\0\0\0\0",
            "abcdefgh",
        ];

        const TYPES: [DataType; 4] = [
            DataType::Int64,
            DataType::Date32,
            DataType::Boolean,
            DataType::Utf8,
        ];

        fn validity(g: &mut Gen, n: usize) -> Option<Bitmap> {
            (g.below(2) == 0).then(|| (0..n).map(|_| g.below(4) != 0).collect())
        }

        /// Integers around the tuple table's edge, at both ends of `i64`,
        /// or a few values near a random base.
        fn ints(g: &mut Gen, n: usize) -> Vec<i64> {
            let edge = TUPLE_SLOTS as i64;
            let base = g.pick(&[i64::MIN, -1, 0, 1 << 40, i64::MAX - edge]);
            let pool: Vec<i64> = match g.below(4) {
                0 => vec![base, base + edge - 2, base + edge - 1],
                1 => vec![base, base + edge],
                2 => vec![i64::MIN, i64::MAX, 0],
                _ => (0..6).map(|i| base.saturating_add(i)).collect(),
            };
            (0..n).map(|_| g.pick(&pool)).collect()
        }

        fn column(g: &mut Gen, dt: DataType, n: usize) -> Array {
            let validity = validity(g, n);
            match dt {
                DataType::Int64 => Array::Int64(Int64Array {
                    values: ints(g, n),
                    validity,
                }),
                DataType::Date32 => Array::Date32(Date32Array {
                    values: ints(g, n).into_iter().map(|v| v as i32).collect(),
                    validity,
                }),
                DataType::Boolean => Array::Boolean(BooleanArray {
                    values: (0..n).map(|_| g.below(2) == 0).collect(),
                    validity,
                }),
                _ => {
                    // Few short strings, or more distinct ones than the
                    // per-batch table holds.
                    let many = g.below(5) == 0;
                    let values: Vec<String> = (0..n)
                        .map(|_| match many {
                            true => g.below(400).to_string(),
                            false => g.pick(&STRS).to_string(),
                        })
                        .collect();
                    let mut plain = Utf8Array::from_strs(values.iter().map(|s| s.as_str()));
                    plain.validity = validity.clone();
                    if g.below(2) == 0 {
                        return Array::Utf8(plain);
                    }
                    // The same column, dictionary-coded.
                    let mut entries: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
                    entries.sort_unstable();
                    entries.dedup();
                    let codes = values
                        .iter()
                        .map(|v| entries.binary_search(&v.as_str()).unwrap() as u32)
                        .collect();
                    let entries = Arc::new(Utf8Array::from_strs(entries));
                    Array::Dict(DictArray::try_new(codes, entries, validity).unwrap())
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn coded_and_per_row_resolution_agree(
                seed in any::<u64>(),
                ncols in 1usize..4,
                nbatches in 1usize..5,
            ) {
                let mut g = Gen(seed);
                let types: Vec<DataType> = (0..ncols).map(|_| g.pick(&TYPES)).collect();
                let mut coded = GroupIdMap::new(types.clone());
                let mut per_row = GroupIdMap::new(types.clone());
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for _ in 0..nbatches {
                    // Past `TUPLE_SLOTS` rows, spans at the table's edge can
                    // take the coded path.
                    let n = g.pick(&[0, 1, 63, 64, 65, 200, TUPLE_SLOTS + 1]);
                    let cols: Vec<Array> = types.iter().map(|&dt| column(&mut g, dt, n)).collect();
                    let keys: Vec<&Array> = cols.iter().collect();
                    coded.group_ids(&keys, n, &mut got).unwrap();
                    want.clear();
                    per_row.probe_rows(&keys, n, &mut want).unwrap();
                    prop_assert_eq!(&got, &want);
                }
                prop_assert_eq!(coded.num_groups(), per_row.num_groups());
                prop_assert_eq!(coded.key_arrays(), per_row.key_arrays());
            }
        }
    }
}
