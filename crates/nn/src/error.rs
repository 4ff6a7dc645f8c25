use std::fmt;

/// Errors produced by tensor algebra, network construction and training.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A tensor was built or used with an incompatible shape.
    ShapeMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// The shape actually supplied.
        got: Vec<usize>,
    },
    /// A dataset's data length does not factor into items of the given shape.
    InvalidDataset {
        /// Description of the inconsistency.
        reason: String,
    },
    /// An IDX (MNIST) file could not be parsed.
    ParseIdx {
        /// Description of the failure.
        reason: String,
    },
    /// An argument is outside its valid range (for example a zero batch
    /// size).
    InvalidArgument {
        /// Description of the invalid argument.
        reason: String,
    },
}

impl Error {
    pub(crate) fn shape(expected: impl Into<String>, got: &[usize]) -> Self {
        Error::ShapeMismatch { expected: expected.into(), got: got.to_vec() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got:?}")
            }
            Error::InvalidDataset { reason } => write!(f, "invalid dataset: {reason}"),
            Error::ParseIdx { reason } => write!(f, "failed to parse idx file: {reason}"),
            Error::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = Error::shape("[2, 3]", &[4]);
        assert!(e.to_string().contains("[4]"));
        assert!(Error::InvalidDataset { reason: "x".into() }.to_string().contains("x"));
        assert!(Error::ParseIdx { reason: "magic".into() }.to_string().contains("magic"));
        let arg = Error::InvalidArgument { reason: "batch size".into() };
        assert!(arg.to_string().contains("batch size"));
    }
}
