//! The logical type system: [`DataType`] and untyped single values
//! ([`Scalar`]).

use std::cmp::Ordering;
use std::fmt;

use crate::error::{ColumnarError, Result};

/// Logical data types supported by the engine.
///
/// This is the subset needed by the paper's workloads: 64-bit integers,
/// double-precision floats (which S3 Select notably *lacks* — OCS's support
/// for them is one of its selling points), booleans, UTF-8 strings and
/// days-since-epoch dates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 floating point ("double precision").
    Float64,
    /// Boolean.
    Boolean,
    /// Variable-length UTF-8 string.
    Utf8,
    /// Date as days since the UNIX epoch.
    Date32,
}

impl DataType {
    /// Stable single-byte tag for wire formats.
    pub fn tag(&self) -> u8 {
        match self {
            DataType::Int64 => 0,
            DataType::Float64 => 1,
            DataType::Boolean => 2,
            DataType::Utf8 => 3,
            DataType::Date32 => 4,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => DataType::Int64,
            1 => DataType::Float64,
            2 => DataType::Boolean,
            3 => DataType::Utf8,
            4 => DataType::Date32,
            other => {
                return Err(ColumnarError::Corrupt(format!(
                    "unknown data type tag {other}"
                )))
            }
        })
    }

    /// True for types on which arithmetic is defined.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64 | DataType::Date32)
    }

    /// True when values of `self` and `other` can be compared: the same
    /// type, or both numeric (mixed numeric types compare as `f64`). The
    /// engine's analyzer and planck apply it to comparisons and `BETWEEN`
    /// bounds through [`crate::expr::comparable`], which adds the one
    /// exception: an untyped `NULL` literal compares with any type.
    pub fn comparable_with(&self, other: DataType) -> bool {
        *self == other || (self.is_numeric() && other.is_numeric())
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Boolean => "Boolean",
            DataType::Utf8 => "Utf8",
            DataType::Date32 => "Date32",
        };
        f.write_str(s)
    }
}

/// A single, possibly-null value of any [`DataType`].
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// SQL NULL.
    Null,
    /// An [`DataType::Int64`] value.
    Int64(i64),
    /// A [`DataType::Float64`] value.
    Float64(f64),
    /// A [`DataType::Boolean`] value.
    Boolean(bool),
    /// A [`DataType::Utf8`] value.
    Utf8(String),
    /// A [`DataType::Date32`] value (days since epoch).
    Date32(i32),
}

impl Scalar {
    /// The scalar's data type, or `None` for [`Scalar::Null`].
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Scalar::Null => None,
            Scalar::Int64(_) => Some(DataType::Int64),
            Scalar::Float64(_) => Some(DataType::Float64),
            Scalar::Boolean(_) => Some(DataType::Boolean),
            Scalar::Utf8(_) => Some(DataType::Utf8),
            Scalar::Date32(_) => Some(DataType::Date32),
        }
    }

    /// True for [`Scalar::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Scalar::Null)
    }

    /// Numeric view as `f64` for Int64/Float64/Date32 scalars.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int64(v) => Some(*v as f64),
            Scalar::Float64(v) => Some(*v),
            Scalar::Date32(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integer view for Int64/Date32 scalars.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::Int64(v) => Some(*v),
            Scalar::Date32(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Total order over same-type scalars; NULLs sort first. Used by the
    /// sort kernels and by file-format statistics.
    pub fn total_cmp(&self, other: &Scalar) -> Ordering {
        use Scalar::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int64(a), Int64(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Utf8(a), Utf8(b)) => a.cmp(b),
            (Date32(a), Date32(b)) => a.cmp(b),
            // Cross-type numeric comparison via f64 (Int64 vs Float64 etc.).
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => Ordering::Equal,
            },
        }
    }

    /// Cast the scalar to `to`, when a lossless or standard SQL cast exists.
    pub fn cast(&self, to: DataType) -> Result<Scalar> {
        match (self, to) {
            (Scalar::Null, _) => Ok(Scalar::Null),
            (s, t) if s.data_type() == Some(t) => Ok(s.clone()),
            (Scalar::Int64(v), DataType::Float64) => Ok(Scalar::Float64(*v as f64)),
            (Scalar::Float64(v), DataType::Int64) => Ok(Scalar::Int64(*v as i64)),
            (Scalar::Date32(v), DataType::Int64) => Ok(Scalar::Int64(*v as i64)),
            (Scalar::Int64(v), DataType::Date32) => Ok(Scalar::Date32(*v as i32)),
            (Scalar::Utf8(s), DataType::Int64) => s
                .parse::<i64>()
                .map(Scalar::Int64)
                .map_err(|e| ColumnarError::Invalid(format!("cast '{s}' to Int64: {e}"))),
            (Scalar::Utf8(s), DataType::Float64) => s
                .parse::<f64>()
                .map(Scalar::Float64)
                .map_err(|e| ColumnarError::Invalid(format!("cast '{s}' to Float64: {e}"))),
            (s, t) => Err(ColumnarError::Invalid(format!(
                "unsupported cast {s} to {t}"
            ))),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Null => write!(f, "NULL"),
            Scalar::Int64(v) => write!(f, "{v}"),
            Scalar::Float64(v) => write!(f, "{v}"),
            Scalar::Boolean(v) => write!(f, "{v}"),
            Scalar::Utf8(v) => write!(f, "'{v}'"),
            Scalar::Date32(v) => write!(f, "date({v})"),
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int64(v)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float64(v)
    }
}
impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Boolean(v)
    }
}
impl From<&str> for Scalar {
    fn from(v: &str) -> Self {
        Scalar::Utf8(v.to_string())
    }
}

/// Convert a calendar date to days since the UNIX epoch (proleptic
/// Gregorian). Used for SQL `DATE '1998-12-01'` literals.
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i32 {
    // Howard Hinnant's algorithm.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((month + 9) % 12) as i64; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146097 + doe - 719468) as i32
}

/// Inverse of [`days_from_civil`]; returns `(year, month, day)`.
pub fn civil_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tags_roundtrip() {
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Boolean,
            DataType::Utf8,
            DataType::Date32,
        ] {
            assert_eq!(DataType::from_tag(dt.tag()).unwrap(), dt);
        }
        assert!(DataType::from_tag(99).is_err());
    }

    #[test]
    fn scalar_ordering_nulls_first() {
        assert_eq!(Scalar::Null.total_cmp(&Scalar::Int64(0)), Ordering::Less);
        assert_eq!(
            Scalar::Int64(1).total_cmp(&Scalar::Int64(2)),
            Ordering::Less
        );
        assert_eq!(
            Scalar::Float64(f64::NAN).total_cmp(&Scalar::Float64(f64::NAN)),
            Ordering::Equal
        );
        assert_eq!(
            Scalar::Utf8("a".into()).total_cmp(&Scalar::Utf8("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn cross_type_numeric_ordering() {
        assert_eq!(
            Scalar::Int64(2).total_cmp(&Scalar::Float64(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Scalar::Float64(3.0).total_cmp(&Scalar::Int64(3)),
            Ordering::Equal
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            Scalar::Int64(3).cast(DataType::Float64).unwrap(),
            Scalar::Float64(3.0)
        );
        assert_eq!(
            Scalar::Utf8("42".into()).cast(DataType::Int64).unwrap(),
            Scalar::Int64(42)
        );
        assert!(Scalar::Boolean(true).cast(DataType::Float64).is_err());
        assert_eq!(Scalar::Null.cast(DataType::Utf8).unwrap(), Scalar::Null);
    }

    #[test]
    fn civil_date_conversion_known_values() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
        // TPC-H's famous date.
        assert_eq!(days_from_civil(1998, 12, 1), 10561);
        assert_eq!(civil_from_days(10561), (1998, 12, 1));
    }

    #[test]
    fn civil_date_roundtrip_sweep() {
        for days in (-30000..60000).step_by(97) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
            assert!((1..=12).contains(&m));
            assert!((1..=31).contains(&d));
        }
    }
}
