//! Schemas: named, typed, nullable columns.

use std::fmt;
use std::sync::Arc;

use crate::datatype::DataType;
use crate::error::{ColumnarError, Result};

/// Shared handle to a [`Schema`].
pub type SchemaRef = Arc<Schema>;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name (case-sensitive inside the engine; SQL identifiers are
    /// lower-cased by the parser).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, data_type: DataType, nullable: bool) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}{}",
            self.name,
            self.data_type,
            if self.nullable { " NULL" } else { "" }
        )
    }
}

/// An ordered list of [`Field`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Construct from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Empty schema.
    pub fn empty() -> Self {
        Schema { fields: vec![] }
    }

    /// All fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field at `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| {
                ColumnarError::SchemaMismatch(format!(
                    "no column named '{name}' (have: {})",
                    self.fields
                        .iter()
                        .map(|f| f.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
    }

    /// A new schema keeping only columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.fields.len() {
                return Err(ColumnarError::IndexOutOfBounds {
                    index: i,
                    len: self.fields.len(),
                });
            }
            fields.push(self.fields[i].clone());
        }
        Ok(Schema { fields })
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Field>> for Schema {
    fn from(fields: Vec<Field>) -> Self {
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Float64, true),
            Field::new("c", DataType::Utf8, false),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("b").unwrap(), 1);
        let err = s.index_of("zzz").unwrap_err();
        assert!(err.to_string().contains("zzz"));
    }

    #[test]
    fn projection_reorders() {
        let s = sample();
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.names(), vec!["c", "a"]);
        assert!(s.project(&[7]).is_err());
    }

    #[test]
    fn display_is_readable() {
        let s = sample();
        assert_eq!(s.to_string(), "(a: Int64, b: Float64 NULL, c: Utf8)");
    }
}
