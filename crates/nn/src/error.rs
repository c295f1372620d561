//! Error type for network construction, training and quantization.

use std::error::Error;
use std::fmt;
use wgft_fixedpoint::FixedPointError;
use wgft_tensor::TensorError;
use wgft_winograd::WinogradError;

/// Errors produced by the neural-network substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor operation failed (shape mismatch, bad index, ...).
    Tensor(TensorError),
    /// A convolution kernel rejected its configuration.
    Winograd(WinogradError),
    /// Fixed-point calibration failed.
    FixedPoint(FixedPointError),
    /// A layer received the wrong number of inputs.
    WrongInputCount {
        /// Layer description.
        layer: &'static str,
        /// Expected input count.
        expected: usize,
        /// Actual input count.
        actual: usize,
    },
    /// A graph node referenced a node that does not precede it.
    InvalidGraph {
        /// The offending node index.
        node: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// Backward was called before forward.
    BackwardBeforeForward,
    /// A convolution layer's geometry has no backward pass: training needs
    /// a square kernel, unit stride and padding smaller than the kernel.
    UntrainableConv {
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
    },
    /// The network produced no output (empty graph).
    EmptyNetwork,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::Winograd(e) => write!(f, "convolution error: {e}"),
            NnError::FixedPoint(e) => write!(f, "fixed-point error: {e}"),
            NnError::WrongInputCount {
                layer,
                expected,
                actual,
            } => {
                write!(f, "{layer} layer expected {expected} inputs, got {actual}")
            }
            NnError::InvalidGraph { node, reason } => {
                write!(f, "invalid graph at node {node}: {reason}")
            }
            NnError::BackwardBeforeForward => {
                write!(f, "backward called before forward cached the activations")
            }
            NnError::UntrainableConv {
                kernel: (k_h, k_w),
                stride,
                padding,
            } => write!(
                f,
                "a {k_h}x{k_w} conv with stride {stride} and padding {padding} has no backward \
                 pass (training needs a square kernel, unit stride and padding below the kernel)"
            ),
            NnError::EmptyNetwork => write!(f, "the network graph has no nodes"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Winograd(e) => Some(e),
            NnError::FixedPoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<WinogradError> for NnError {
    fn from(e: WinogradError) -> Self {
        NnError::Winograd(e)
    }
}

impl From<FixedPointError> for NnError {
    fn from(e: FixedPointError) -> Self {
        NnError::FixedPoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = NnError::from(TensorError::RankMismatch {
            expected: 4,
            actual: 2,
        });
        assert!(e.to_string().contains("tensor error"));
        assert!(e.source().is_some());
        let e = NnError::WrongInputCount {
            layer: "add",
            expected: 2,
            actual: 1,
        };
        assert!(e.to_string().contains("add"));
        assert!(e.source().is_none());
        assert!(NnError::EmptyNetwork.to_string().contains("no nodes"));
        assert!(NnError::BackwardBeforeForward
            .to_string()
            .contains("backward"));
        let e = NnError::InvalidGraph {
            node: 3,
            reason: "cycle".into(),
        };
        assert!(e.to_string().contains("node 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<NnError>();
    }
}
