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
//! A batch whose key columns are all dictionary-coded ([`crate::DictArray`])
//! takes a shortcut when its tuples of codes are few: each distinct tuple
//! goes through the probe once, at its first row, and every row then reads
//! its group from a table indexed by the tuple. Dictionary columns in any
//! other key mix take the per-row path, hashed and compared by their bytes
//! exactly as plain Utf8 rows are, so both forms of a column meet in one
//! aggregation.
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
use crate::kernels::hash::{canon_f64, hash_column_into};
use crate::kernels::selection::take_indices;

/// Sentinel ordinal marking an empty hash-table slot.
const EMPTY: u32 = u32::MAX;

/// Most code tuples (one table slot each) a batch of dictionary keys may
/// span for the per-tuple path; wider key sets take the per-row path.
const DICT_TUPLE_SLOTS: usize = 1 << 16;

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
    /// Per-row code tuples, then tuple → group ordinal, on the dictionary
    /// path (reused across batches).
    tuple_buf: Vec<u32>,
    tuple_table: Vec<u32>,
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
        if !self.dict_group_ids(keys, num_rows, out)? {
            self.probe_rows(keys, num_rows, out)?;
        }
        Ok(())
    }

    /// The per-row path: hash every row, then probe for each in turn. This
    /// loop is the probe's only call site, the dictionary path included:
    /// given a second one, the compiler stopped inlining the probe here and
    /// Int64 keys resolved about a third slower.
    fn probe_rows(&mut self, keys: &[&Array], num_rows: usize, out: &mut Vec<u32>) -> Result<()> {
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

    /// The per-tuple path, taken (returning true) when every key column is
    /// dictionary-coded and the code tuples, a null counting as one more
    /// code per column, fit in [`DICT_TUPLE_SLOTS`]. A row's tuple is a
    /// mixed-radix index into a table. The first row of each tuple, and
    /// only those, go through [`GroupIdMap::probe_rows`], so ordinals,
    /// first-seen order, hashing and equality are the per-row path's; every
    /// row then reads its ordinal from the table.
    fn dict_group_ids(
        &mut self,
        keys: &[&Array],
        num_rows: usize,
        out: &mut Vec<u32>,
    ) -> Result<bool> {
        let Some(dicts) = keys.iter().map(|a| a.as_dict()).collect::<Option<Vec<_>>>() else {
            return Ok(false);
        };
        let mut slots = 1usize;
        let mut strides = Vec::with_capacity(dicts.len());
        for d in &dicts {
            strides.push(slots as u32);
            match slots.checked_mul(d.entries().len() + 1) {
                Some(s) if s <= DICT_TUPLE_SLOTS => slots = s,
                _ => return Ok(false),
            }
        }
        let mut tuples = std::mem::take(&mut self.tuple_buf);
        tuples.clear();
        tuples.resize(num_rows, 0);
        for (d, &stride) in dicts.iter().zip(&strides) {
            let pairs = tuples.iter_mut().zip(d.codes());
            match d.validity() {
                None => pairs.for_each(|(t, &c)| *t += c * stride),
                Some(v) => {
                    let null = d.entries().len() as u32;
                    for (i, (t, &c)) in pairs.enumerate() {
                        *t += if v.get(i) { c } else { null } * stride;
                    }
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

/// A complete vectorized grouped aggregation: group-id resolution plus one
/// columnar accumulator per aggregate. This is the single aggregation
/// engine shared by the query engine (partial and final phases) and the
/// OCS storage executor.
#[derive(Debug, Clone)]
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
            acc.update(&gids, *arg);
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
}
