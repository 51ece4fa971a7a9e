//! Dense tensors and reference CNN operators.
//!
//! This crate is the *digital golden model* for the Albireo reproduction: it
//! implements the convolution of Algorithm 1 of the paper as one grouped
//! convolution (depthwise layers are one group per channel, pointwise
//! layers 1×1 kernels) plus fully-connected layers exactly, in `f64`, so
//! that the analog photonic simulation in `albireo-core` can be checked
//! against it up to the predicted analog precision.
//!
//! The indexing convention follows the paper: an input volume `A` is indexed
//! `A[z][y][x]` (channel, row, column) and a kernel stack `W` is indexed
//! `W[m][z][y][x]` (kernel, channel, row, column).
//!
//! # Example
//!
//! ```
//! use albireo_tensor::{Tensor3, Tensor4, conv};
//!
//! let input = Tensor3::filled(3, 8, 8, 1.0);
//! let kernels = Tensor4::filled(4, 3, 3, 3, 0.1);
//! let out = conv::conv2d(&input, &kernels, &conv::ConvSpec::same_padding(3, 1));
//! assert_eq!(out.dims(), (4, 8, 8));
//! ```

pub mod conv;
pub mod im2col;
pub mod shape;
pub mod tensor3;
pub mod tensor4;

pub use conv::ConvSpec;
pub use shape::output_extent;
pub use tensor3::Tensor3;
pub use tensor4::Tensor4;

use std::error::Error;
use std::fmt;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// What was expected.
        expected: String,
        /// What was received.
        actual: String,
    },
    /// A dimension was zero where a non-empty tensor is required.
    EmptyDimension(&'static str),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            TensorError::EmptyDimension(dim) => write!(f, "dimension `{dim}` must be non-zero"),
        }
    }
}

impl Error for TensorError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = TensorError::EmptyDimension("x");
        assert!(e.to_string().contains('x'));
        let e = TensorError::ShapeMismatch {
            expected: "3x3".into(),
            actual: "2x2".into(),
        };
        assert!(e.to_string().contains("3x3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
