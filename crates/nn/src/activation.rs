//! Activation layers.

use crate::NnError;
use serde::{Deserialize, Serialize};
use wgft_tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Create a ReLU layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; records the mask [`Relu::backward`] reads.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
        Self::forward_inference(input)
    }

    /// Inference-only forward pass: [`Relu::forward`] without the mask.
    #[must_use]
    pub fn forward_inference(input: &Tensor) -> Tensor {
        input.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Backward pass: zeroes the gradient where the input was non-positive.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if forward was not called.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self.mask.as_ref().ok_or(NnError::BackwardBeforeForward)?;
        let data = grad_out
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Ok(Tensor::from_vec(grad_out.shape().clone(), data)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgft_tensor::Shape;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(Shape::d1(4), vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(Shape::d1(4), vec![-1.0, 3.0, 2.0, -0.5]).unwrap();
        let _ = relu.forward(&x);
        let g = Tensor::from_vec(Shape::d1(4), vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let gi = relu.backward(&g).unwrap();
        assert_eq!(gi.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        let g = Tensor::zeros(Shape::d1(2));
        assert!(matches!(
            relu.backward(&g),
            Err(NnError::BackwardBeforeForward)
        ));
    }
}
