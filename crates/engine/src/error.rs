//! Engine error type.

use std::fmt;

/// Result alias used across the engine.
pub type EResult<T> = std::result::Result<T, EngineError>;

/// Errors surfaced by planning or execution.
#[derive(Debug)]
pub enum EngineError {
    /// SQL failed to parse.
    Parse(sqlparse::ParseError),
    /// Semantic analysis failed (unknown table/column, type error, …).
    Analysis(String),
    /// The catalog has no such table.
    UnknownTable(String),
    /// A connector failed. Holds the connector's own error (`dsq` cannot
    /// name the connector crates), which callers downcast.
    Connector(Box<dyn std::error::Error + Send + Sync>),
    /// Columnar-layer error.
    Columnar(columnar::ColumnarError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Analysis(m) => write!(f, "analysis error: {m}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::Connector(e) => write!(f, "connector error: {e}"),
            EngineError::Columnar(e) => write!(f, "columnar error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// A connector failure: the connector's own error, or a message.
    pub fn connector(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> Self {
        EngineError::Connector(e.into())
    }
}

impl From<sqlparse::ParseError> for EngineError {
    fn from(e: sqlparse::ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<columnar::ColumnarError> for EngineError {
    fn from(e: columnar::ColumnarError) -> Self {
        EngineError::Columnar(e)
    }
}
