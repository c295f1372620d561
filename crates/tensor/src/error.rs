//! Error type for tensor shape and indexing failures.

use crate::Shape;
use std::error::Error;
use std::fmt;

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Shape,
        /// Shape of the right-hand operand.
        right: Shape,
    },
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending flat or dimensional index (flattened for reporting).
        index: usize,
        /// Number of elements in the tensor.
        len: usize,
    },
    /// The tensor did not have the expected number of dimensions.
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// The provided data length does not match the shape volume.
    DataLengthMismatch {
        /// Expected element count from the shape.
        expected: usize,
        /// Provided data length.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch between {left} and {right}")
            }
            TensorError::IndexOutOfBounds { index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for tensor of {len} elements"
                )
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected a rank-{expected} tensor, got rank {actual}")
            }
            TensorError::DataLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::ShapeMismatch {
            left: Shape::nchw(1, 2, 3, 4),
            right: Shape::d2(5, 6),
        };
        assert!(e.to_string().contains("mismatch"));
        let e = TensorError::DataLengthMismatch {
            expected: 3,
            actual: 7,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TensorError>();
    }
}
