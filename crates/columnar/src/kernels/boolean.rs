//! SQL three-valued boolean logic on [`BooleanArray`] masks.
//!
//! `AND`/`OR` follow Kleene semantics: `FALSE AND NULL = FALSE`,
//! `TRUE OR NULL = TRUE`, otherwise NULL propagates. Each is one pass over
//! the packed words; the result clears the value bit of every NULL row and
//! carries a validity bitmap only when some row is NULL.

use crate::array::BooleanArray;
use crate::bitmap::Bitmap;
use crate::error::{ColumnarError, Result};

fn check_len(a: &BooleanArray, b: &BooleanArray) -> Result<()> {
    if a.values.len() != b.values.len() {
        return Err(ColumnarError::LengthMismatch {
            left: a.values.len(),
            right: b.values.len(),
        });
    }
    Ok(())
}

/// A Kleene operator in one pass over the words: `f` takes the words of
/// (known-true `a`, valid `a`, known-true `b`, valid `b`) and returns the
/// result's (values, validity). Two null-free masks build no validity.
fn kleene(
    a: &BooleanArray,
    b: &BooleanArray,
    f: impl Fn(u64, u64, u64, u64) -> (u64, u64),
) -> Result<BooleanArray> {
    check_len(a, b)?;
    let len = a.values.len();
    let (aw, bw) = (a.values.words(), b.values.words());
    if a.validity.is_none() && b.validity.is_none() {
        let values = aw
            .iter()
            .zip(bw)
            .map(|(&x, &y)| f(x, u64::MAX, y, u64::MAX).0);
        return Ok(BooleanArray {
            values: Bitmap::from_words(values.collect(), len),
            validity: None,
        });
    }
    let valid = |m: &BooleanArray, i: usize| m.validity.as_ref().map_or(u64::MAX, |v| v.words()[i]);
    let (values, validity): (Vec<u64>, Vec<u64>) = (0..aw.len())
        .map(|i| {
            let (av, bv) = (valid(a, i), valid(b, i));
            f(aw[i] & av, av, bw[i] & bv, bv)
        })
        .unzip();
    let validity = Bitmap::from_words(validity, len);
    Ok(BooleanArray {
        values: Bitmap::from_words(values, len),
        validity: (!validity.all_set()).then_some(validity),
    })
}

/// Kleene `AND`.
pub fn and(a: &BooleanArray, b: &BooleanArray) -> Result<BooleanArray> {
    // valid: (both valid) OR (a known false) OR (b known false).
    kleene(a, b, |at, av, bt, bv| {
        (at & bt, (av & bv) | (av & !at) | (bv & !bt))
    })
}

/// Kleene `OR`.
pub fn or(a: &BooleanArray, b: &BooleanArray) -> Result<BooleanArray> {
    // valid: (both valid) OR (a known true) OR (b known true).
    kleene(a, b, |at, av, bt, bv| (at | bt, (av & bv) | at | bt))
}

/// The canonical mask for `values` under `validity`: the value bit of every
/// NULL row cleared, and a validity bitmap only when some row is NULL: what
/// the Kleene operators return, and what Boolean, mixed-type and `BETWEEN`
/// comparisons return.
pub(crate) fn canonical(values: Bitmap, validity: Option<Bitmap>) -> BooleanArray {
    match validity {
        Some(v) if !v.all_set() => BooleanArray {
            values: values.and(&v).expect("same length"),
            validity: Some(v),
        },
        _ => BooleanArray {
            values,
            validity: None,
        },
    }
}

/// Logical `NOT` (NULL stays NULL).
pub fn not(a: &BooleanArray) -> BooleanArray {
    let mut values = a.values.not();
    if let Some(v) = &a.validity {
        // Keep value bits of invalid slots at 0 for canonical form.
        values = values.and(v).expect("same length");
    }
    BooleanArray {
        values,
        validity: a.validity.clone(),
    }
}

/// Rows where the mask is valid **and** true — i.e. rows a SQL `WHERE`
/// clause keeps.
pub fn true_bits(mask: &BooleanArray) -> Bitmap {
    match &mask.validity {
        Some(v) => mask.values.and(v).expect("same length"),
        None => mask.values.clone(),
    }
}

/// Count of kept rows.
pub fn true_count(mask: &BooleanArray) -> usize {
    true_bits(mask).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a mask from Option<bool> slots (None = NULL).
    fn mask(slots: &[Option<bool>]) -> BooleanArray {
        let values =
            Bitmap::from_bools(&slots.iter().map(|s| s.unwrap_or(false)).collect::<Vec<_>>());
        let validity = Bitmap::from_bools(&slots.iter().map(|s| s.is_some()).collect::<Vec<_>>());
        BooleanArray {
            values,
            validity: (!validity.all_set()).then_some(validity),
        }
    }

    fn slots(mask: &BooleanArray) -> Vec<Option<bool>> {
        (0..mask.values.len())
            .map(|i| {
                if mask.validity.as_ref().map(|v| v.get(i)).unwrap_or(true) {
                    Some(mask.values.get(i))
                } else {
                    None
                }
            })
            .collect()
    }

    const T: Option<bool> = Some(true);
    const F: Option<bool> = Some(false);
    const N: Option<bool> = None;

    #[test]
    fn kleene_and_truth_table() {
        let a = mask(&[T, T, T, F, F, F, N, N, N]);
        let b = mask(&[T, F, N, T, F, N, T, F, N]);
        let out = and(&a, &b).unwrap();
        assert_eq!(slots(&out), vec![T, F, N, F, F, F, N, F, N]);
    }

    #[test]
    fn kleene_or_truth_table() {
        let a = mask(&[T, T, T, F, F, F, N, N, N]);
        let b = mask(&[T, F, N, T, F, N, T, F, N]);
        let out = or(&a, &b).unwrap();
        assert_eq!(slots(&out), vec![T, T, T, T, F, N, T, N, N]);
    }

    #[test]
    fn not_preserves_nulls() {
        let a = mask(&[T, F, N]);
        assert_eq!(slots(&not(&a)), vec![F, T, N]);
    }

    #[test]
    fn true_bits_ignores_nulls() {
        let a = mask(&[T, F, N, T]);
        assert_eq!(true_bits(&a).set_indices(), vec![0, 3]);
        assert_eq!(true_count(&a), 2);
    }

    #[test]
    fn no_null_fast_path() {
        let a = mask(&[T, F, T]);
        let b = mask(&[T, T, F]);
        let out = and(&a, &b).unwrap();
        assert!(out.validity.is_none(), "no nulls in, no bitmap out");
        assert_eq!(out.values.set_indices(), vec![0]);
    }

    #[test]
    fn length_mismatch() {
        let a = mask(&[T]);
        let b = mask(&[T, F]);
        assert!(and(&a, &b).is_err());
        assert!(or(&a, &b).is_err());
    }
}
