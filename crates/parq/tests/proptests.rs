//! Property tests: parq write→read round-trips across arbitrary batches,
//! row-group sizes and codecs; pruning soundness on random data, for
//! conjunctions of every comparison over every column type and codec; and
//! dictionary pages at every index width, intact and damaged, against a
//! row-at-a-time reference expansion.

use std::sync::Arc;

use bytes::Bytes;
use columnar::builder::ArrayBuilder;
use columnar::ipc;
use columnar::kernels::cmp::CmpOp;
use columnar::prelude::*;
use lzcodec::CodecKind;
use parq::encoding::{decode_chunk, encode_chunk, Encoding};
use parq::{ParqError, ParqReader, RangePredicate, WriteOptions};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Row {
    id: Option<i64>,
    v: f64,
    tag: String,
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            proptest::option::weighted(0.9, -10_000i64..10_000),
            -1e6f64..1e6,
            "[a-e]{0,3}",
        )
            .prop_map(|(id, v, tag)| Row { id, v, tag }),
        0..max,
    )
}

fn to_batch(rows: &[Row]) -> RecordBatch {
    let schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64, true),
        Field::new("v", DataType::Float64, false),
        Field::new("tag", DataType::Utf8, false),
    ]));
    let mut ids = ArrayBuilder::new(DataType::Int64);
    let mut vs = ArrayBuilder::new(DataType::Float64);
    let mut tags = ArrayBuilder::new(DataType::Utf8);
    for r in rows {
        match r.id {
            Some(x) => ids.push_i64(x),
            None => ids.push_null(),
        }
        vs.push_f64(r.v);
        tags.push_str(&r.tag);
    }
    RecordBatch::try_new(
        schema,
        vec![
            Arc::new(ids.finish()),
            Arc::new(vs.finish()),
            Arc::new(tags.finish()),
        ],
    )
    .unwrap()
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

/// A conjunct's literal for `column`: the value of row `from_row` (so
/// literals sit exactly on row-group bounds), or else one drawn from `at`,
/// reaching a little past both ends of the generated data.
fn literal(rows: &[Row], column: usize, from_row: Option<usize>, at: i64) -> Scalar {
    let row = from_row.and_then(|i| rows.get(i % rows.len().max(1)));
    match column {
        0 => Scalar::Int64(row.and_then(|r| r.id).unwrap_or(at)),
        1 => Scalar::Float64(row.map_or(at as f64 * 100.0, |r| r.v)),
        _ => Scalar::Utf8(row.map_or_else(
            || ["", "a", "bb", "cab", "eee", "f"][at.rem_euclid(6) as usize].to_string(),
            |r| r.tag.clone(),
        )),
    }
}

/// Does `row` satisfy `p`, row by row, with SQL's rule that a null
/// satisfies no comparison?
fn holds(row: &Row, p: &RangePredicate) -> bool {
    let value = match p.column {
        0 => match row.id {
            Some(id) => Scalar::Int64(id),
            None => return false,
        },
        1 => Scalar::Float64(row.v),
        _ => Scalar::Utf8(row.tag.clone()),
    };
    let ord = value.total_cmp(&p.value);
    match p.op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::NotEq => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::LtEq => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::GtEq => ord.is_ge(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn write_read_roundtrip(
        rows in rows_strategy(400),
        rg_rows in 1usize..200,
        codec_tag in 0u8..4,
    ) {
        let codec = CodecKind::from_tag(codec_tag).unwrap();
        let batch = to_batch(&rows);
        let bytes = parq::writer::write_file(
            batch.schema().clone(),
            std::slice::from_ref(&batch),
            WriteOptions { codec, row_group_rows: rg_rows, enable_dictionary: true },
        ).unwrap();
        let r = ParqReader::open(bytes.into()).unwrap();
        prop_assert_eq!(r.total_rows() as usize, rows.len());
        let got = r.read_all(None).unwrap();
        if rows.is_empty() {
            prop_assert!(got.is_empty());
        } else {
            let all = RecordBatch::concat(&got).unwrap();
            prop_assert_eq!(all.rows(), batch.rows());
        }
    }

    #[test]
    fn stats_bound_all_values(rows in rows_strategy(200)) {
        prop_assume!(!rows.is_empty());
        let batch = to_batch(&rows);
        let bytes = parq::writer::write_file(
            batch.schema().clone(),
            &[batch],
            WriteOptions::default(),
        ).unwrap();
        let r = ParqReader::open(bytes.into()).unwrap();
        let stats = r.column_stats(1).unwrap();
        for row in &rows {
            if let (Some(min), Some(max)) = (stats.min.as_f64(), stats.max.as_f64()) {
                prop_assert!(row.v >= min && row.v <= max);
            }
        }
        prop_assert_eq!(stats.row_count as usize, rows.len());
    }
}

proptest! {
    // Many cheap cases: a boundary bug shows only when a literal equals a
    // row group's min or max exactly.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pruning_never_drops_matches(
        rows in rows_strategy(300),
        conjuncts in proptest::collection::vec(
            (0usize..3, 0usize..6, proptest::option::weighted(0.75, 0usize..300), -11_000i64..11_000),
            1..4,
        ),
        rg_rows in 1usize..80,
        codec_at in 0usize..3,
    ) {
        let codec = [CodecKind::None, CodecKind::Snap, CodecKind::Zst][codec_at];
        let batch = to_batch(&rows);
        let bytes = parq::writer::write_file(
            batch.schema().clone(),
            &[batch],
            WriteOptions { codec, row_group_rows: rg_rows, enable_dictionary: true },
        ).unwrap();
        let r = ParqReader::open(bytes.into()).unwrap();
        let preds: Vec<RangePredicate> = conjuncts
            .iter()
            .map(|&(column, op, from_row, at)| RangePredicate {
                column,
                op: OPS[op],
                value: literal(&rows, column, from_row, at),
            })
            .collect();
        let kept: std::collections::HashSet<usize> =
            r.prune_row_groups(&preds).into_iter().collect();
        let groups: Vec<&[Row]> = rows.chunks(rg_rows).collect();
        prop_assert_eq!(r.num_row_groups(), groups.len());
        for (rg, group) in groups.iter().enumerate() {
            if group.iter().any(|row| preds.iter().all(|p| holds(row, p))) {
                prop_assert!(kept.contains(&rg), "row group {} wrongly pruned by {:?}", rg, preds);
            }
        }
    }
}

/// The dictionary expansion `decode_chunk` used before it worked on whole
/// buffers, kept as the oracle: check the page's checksum, walk the page,
/// then push one `&str` per row through an `ArrayBuilder`. `None` is "the
/// page is damaged".
fn reference_dictionary_decode(sealed: &[u8]) -> Option<Array> {
    let page = sealed.get(..sealed.len().checked_sub(ipc::CHECKSUM_BYTES)?)?;
    if ipc::checksum(page).to_le_bytes() != sealed[page.len()..] {
        return None;
    }
    let mut at = 0usize;
    let mut take = move |n: usize| {
        let field = page.get(at..at.checked_add(n)?)?;
        at += n;
        Some(field)
    };
    let le = |b: &[u8]| {
        let mut word = [0u8; 4];
        word[..b.len()].copy_from_slice(b);
        u32::from_le_bytes(word) as usize
    };
    let nrows = le(take(4)?);
    let validity = match take(1)?[0] {
        1 => Some(Bitmap::from_le_bytes(take(nrows.div_ceil(64) * 8)?, nrows).ok()?),
        _ => None,
    };
    let width = take(1)?[0] as usize;
    if !matches!(width, 1 | 2 | 4) {
        return None;
    }
    let indices = take(nrows * width)?;
    let dlen = le(take(4)?);
    let dict = ipc::decode_message(&Bytes::from(take(dlen)?.to_vec())).ok()?;
    if take(1).is_some() {
        return None;
    }
    let dict = dict.column(0).as_utf8().ok()?;
    let mut out = ArrayBuilder::new(DataType::Utf8);
    for (i, id) in indices.chunks_exact(width).map(le).enumerate() {
        if validity.as_ref().is_some_and(|v| !v.get(i)) {
            out.push_null();
        } else if id < dict.len() {
            out.push_str(dict.value(id));
        } else {
            return None;
        }
    }
    Some(out.finish())
}

fn is_corrupt(e: &ParqError) -> bool {
    matches!(
        e,
        ParqError::Corrupt(_) | ParqError::Columnar(ColumnarError::Corrupt(_))
    )
}

/// A Utf8 column over `distinct` dictionary entries (one empty, some
/// multi-byte). The first `distinct` valid rows name every entry once and
/// `extra` more pick entries at random, so the dictionary, and with it the
/// index width, is fixed by `distinct`. About `null_pct` % of the rows are
/// nulls placed at random; with `distinct == 0` every row is null.
fn dictionary_column(distinct: usize, extra: usize, null_pct: u64, seed: u64) -> Array {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let entry = |k: usize| match k {
        0 => String::new(),
        k if k % 3 == 0 => format!("é{k}"),
        k => format!("v{k}"),
    };
    let mut b = ArrayBuilder::new(DataType::Utf8);
    let valid = if distinct == 0 { 0 } else { distinct + extra };
    let mut pushed = 0;
    while pushed < valid || (distinct == 0 && b.len() < extra) {
        if distinct == 0 || next() % 100 < null_pct {
            b.push_null();
            continue;
        }
        let k = if pushed < distinct {
            pushed
        } else {
            next() as usize % distinct
        };
        b.push_str(&entry(k));
        pushed += 1;
    }
    b.finish()
}

/// Dictionary sizes that force each index width: 1 (up to 255 entries,
/// 0 = all null), 2 (256 to 65 535) and 4 (65 536 and up).
fn dictionary_size() -> impl Strategy<Value = usize> {
    (0usize..3, any::<usize>()).prop_map(|(width_class, r)| match width_class {
        0 => r % 256,
        1 => 256 + r % 1_245,
        _ => 65_536 + r % 165,
    })
}

/// Where the index width byte of a dictionary page sits.
fn width_at(page: &[u8]) -> usize {
    let nrows = u32::from_le_bytes([page[0], page[1], page[2], page[3]]) as usize;
    5 + if page[4] == 1 {
        nrows.div_ceil(64) * 8
    } else {
        0
    }
}

/// Overwrite the index of `row` and reseal the page, so the decoder's
/// structural checks answer rather than its checksum.
fn set_index(page: &mut Vec<u8>, row: usize, id: u32) {
    let at = width_at(page);
    let width = page[at] as usize;
    let start = at + 1 + row * width;
    page[start..start + width].copy_from_slice(&id.to_le_bytes()[..width]);
    reseal(page);
}

/// Recompute the checksum that ends `page`.
fn reseal(page: &mut Vec<u8>) {
    page.truncate(page.len() - ipc::CHECKSUM_BYTES);
    ipc::seal(page, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dictionary_pages_roundtrip_at_every_index_width(
        distinct in dictionary_size(),
        extra in 0usize..300,
        null_pct in 0u64..60,
        seed in any::<u64>(),
    ) {
        let arr = dictionary_column(distinct, extra, null_pct, seed);
        let page = encode_chunk(&arr, Encoding::Dictionary).unwrap();
        let width = match distinct {
            0..=255 => 1,
            256..=65_535 => 2,
            _ => 4,
        };
        prop_assert_eq!(page[width_at(&page)], width);
        let got = decode_chunk(&page, Encoding::Dictionary).unwrap();
        prop_assert_eq!(&got, &arr);
        prop_assert_eq!(Some(got), reference_dictionary_decode(&page));
    }

    #[test]
    fn damaged_dictionary_pages_match_the_reference(
        distinct in dictionary_size(),
        extra in 0usize..300,
        null_pct in 0u64..60,
        seed in any::<u64>(),
        pick in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let arr = dictionary_column(distinct, extra, null_pct, seed);
        let page = encode_chunk(&arr, Encoding::Dictionary).unwrap().to_vec();
        let width = page[width_at(&page)] as u32;
        let max_id = u32::MAX >> (32 - 8 * width);
        let (valid, null): (Vec<usize>, Vec<usize>) =
            (0..arr.len()).partition(|&i| arr.is_valid(i));

        // An index past the dictionary in a valid slot is damage.
        if !valid.is_empty() {
            let mut bad = page.clone();
            let id = distinct as u32 + (pick as u32 % (max_id - distinct as u32 + 1));
            set_index(&mut bad, valid[pick % valid.len()], id);
            let got = decode_chunk(&Bytes::from(bad.clone()), Encoding::Dictionary);
            prop_assert!(matches!(got, Err(ParqError::Corrupt(_))), "{:?}", got);
            prop_assert_eq!(reference_dictionary_decode(&bad), None);
        }

        // Under a null it is never read: the encoder writes 0 there, even
        // over an empty dictionary.
        if !null.is_empty() {
            let mut odd = page.clone();
            set_index(&mut odd, null[pick % null.len()], max_id);
            let got = decode_chunk(&Bytes::from(odd.clone()), Encoding::Dictionary).unwrap();
            prop_assert_eq!(&got, &arr);
            prop_assert_eq!(Some(got), reference_dictionary_decode(&odd));
        }

        // A page cut short anywhere: unsealed, then resealed so that it is
        // the cut inside the indices or the dictionary that answers.
        let short = cut % page.len();
        let got = decode_chunk(&Bytes::from(page[..short].to_vec()), Encoding::Dictionary);
        prop_assert!(got.as_ref().is_err_and(is_corrupt), "cut at {}: {:?}", short, got);
        prop_assert_eq!(reference_dictionary_decode(&page[..short]), None);
        let body = page.len() - ipc::CHECKSUM_BYTES;
        let mut resealed = page[..cut % body].to_vec();
        ipc::seal(&mut resealed, 0);
        let got = decode_chunk(&Bytes::from(resealed.clone()), Encoding::Dictionary);
        prop_assert!(matches!(got, Err(ParqError::Corrupt(_))), "cut at {}: {:?}", cut % body, got);
        prop_assert_eq!(reference_dictionary_decode(&resealed), None);

        // A dictionary cut short under a length prefix that agrees with it.
        let dict_len_at = width_at(&page) + 1 + arr.len() * width as usize;
        let dict_len = body - dict_len_at - 4;
        let keep = cut % dict_len;
        let mut cut_dict = page[..dict_len_at + 4 + keep].to_vec();
        cut_dict[dict_len_at..dict_len_at + 4].copy_from_slice(&(keep as u32).to_le_bytes());
        ipc::seal(&mut cut_dict, 0);
        let got = decode_chunk(&Bytes::from(cut_dict.clone()), Encoding::Dictionary);
        prop_assert!(got.as_ref().is_err_and(is_corrupt), "dictionary cut to {}: {:?}", keep, got);
        prop_assert_eq!(reference_dictionary_decode(&cut_dict), None);
    }
}
