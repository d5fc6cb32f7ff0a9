//! Error type for tensor construction and I/O.

use std::fmt;

/// Errors produced by tensor construction, conversion, and I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum TensorError {
    /// An entry's coordinates fall outside the declared matrix shape.
    IndexOutOfBounds {
        /// Row coordinate of the offending entry.
        row: u32,
        /// Column coordinate of the offending entry.
        col: u32,
        /// Declared number of rows.
        nrows: u32,
        /// Declared number of columns.
        ncols: u32,
    },
    /// Operand shapes are incompatible (e.g. `vxm` with a mismatched vector).
    DimensionMismatch {
        /// Human-readable description of the two shapes involved.
        context: String,
    },
    /// A file could not be parsed as the expected format.
    Parse {
        /// Line number (1-based) where parsing failed, if known.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A file violated its format's structural contract, with a
    /// machine-stable code (e.g. `mm-truncated` for a MatrixMarket file
    /// holding fewer entries than its size line declares). Tools match
    /// on [`TensorError::code`], never on the prose.
    Format {
        /// Stable machine-matchable code (see [`TensorError::code`]).
        code: &'static str,
        /// Line number (1-based) where the violation was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl TensorError {
    /// The stable machine-matchable error code: the
    /// [`TensorError::Format`] code, or a per-variant fallback
    /// (`index-out-of-bounds`, `dimension-mismatch`, `parse`, `io`).
    /// Codes are a compatibility surface — existing values never change
    /// meaning.
    pub fn code(&self) -> &'static str {
        match self {
            TensorError::IndexOutOfBounds { .. } => "index-out-of-bounds",
            TensorError::DimensionMismatch { .. } => "dimension-mismatch",
            TensorError::Parse { .. } => "parse",
            TensorError::Format { code, .. } => code,
            TensorError::Io(_) => "io",
        }
    }

    /// The 1-based input line a [`TensorError::Parse`] or
    /// [`TensorError::Format`] error points at; `None` for other variants
    /// and for format errors raised outside any line (line 0).
    pub fn line(&self) -> Option<usize> {
        match self {
            TensorError::Parse { line, .. } | TensorError::Format { line, .. } if *line > 0 => {
                Some(*line)
            }
            _ => None,
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            TensorError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            TensorError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TensorError::Format {
                code,
                line,
                message,
            } => {
                write!(f, "format error [{code}] at line {line}: {message}")
            }
            TensorError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TensorError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::IndexOutOfBounds {
            row: 5,
            col: 6,
            nrows: 3,
            ncols: 3,
        };
        assert_eq!(e.to_string(), "entry (5, 6) out of bounds for 3x3 matrix");
        let e = TensorError::DimensionMismatch {
            context: "vxm: vector len 3 vs matrix rows 4".into(),
        };
        assert!(e.to_string().contains("vector len 3"));
    }

    #[test]
    fn codes_are_stable() {
        let e = TensorError::Format {
            code: "mm-truncated",
            line: 7,
            message: "declared 10 entries, file ends after 3".into(),
        };
        assert_eq!(e.code(), "mm-truncated");
        assert_eq!(
            e.to_string(),
            "format error [mm-truncated] at line 7: declared 10 entries, file ends after 3"
        );
        assert_eq!(
            TensorError::Parse {
                line: 1,
                message: "x".into()
            }
            .code(),
            "parse"
        );
        assert_eq!(TensorError::Io(std::io::Error::other("boom")).code(), "io");
        assert_eq!(e.line(), Some(7));
        assert_eq!(TensorError::Io(std::io::Error::other("boom")).line(), None);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
