//! Fully-connected layer.

use crate::conv::empty_tensor;
use crate::NnError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wgft_tensor::{Shape, Tensor};

/// A fully-connected (dense) layer mapping a flattened feature vector to
/// `out_features` logits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weights: Tensor, // (out, in)
    bias: Tensor,    // (out)
    #[serde(skip)]
    cached_input: Option<Tensor>,
    #[serde(skip, default = "empty_tensor")]
    grad_weights: Tensor,
    #[serde(skip, default = "empty_tensor")]
    grad_bias: Tensor,
}

impl Linear {
    /// Create a dense layer with He-uniform initial weights.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let weights = Tensor::he_uniform(Shape::d2(out_features, in_features), in_features, rng);
        let bias = Tensor::zeros(Shape::d1(out_features));
        Self {
            in_features,
            out_features,
            grad_weights: Tensor::zeros(weights.shape().clone()),
            grad_bias: Tensor::zeros(bias.shape().clone()),
            weights,
            bias,
            cached_input: None,
        }
    }

    /// Number of input features.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Weight matrix `(out_features, in_features)`.
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Bias vector.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Forward pass: the input is flattened to `in_features` values. Keeps
    /// a copy of the input for [`Linear::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WrongInputCount`] if the flattened input length does
    /// not equal `in_features`.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = self.forward_inference(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    /// Inference-only forward pass: [`Linear::forward`] without keeping the
    /// input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::WrongInputCount`] if the flattened input length does
    /// not equal `in_features`.
    pub fn forward_inference(&self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.len() != self.in_features {
            return Err(NnError::WrongInputCount {
                layer: "linear",
                expected: self.in_features,
                actual: input.len(),
            });
        }
        let mut out = vec![0.0f32; self.out_features];
        let w = self.weights.data();
        let x = input.data();
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &w[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = self.bias.data()[o];
            for (wv, xv) in row.iter().zip(x.iter()) {
                acc += wv * xv;
            }
            *out_v = acc;
        }
        Ok(Tensor::from_vec(Shape::d1(self.out_features), out)?)
    }

    /// Backward pass: accumulates gradients and returns the input gradient
    /// (shaped like the cached input).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if forward was not called.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        if self.grad_weights.len() != self.weights.len() {
            self.grad_weights = Tensor::zeros(self.weights.shape().clone());
            self.grad_bias = Tensor::zeros(self.bias.shape().clone());
        }
        let mut grad_input = Tensor::zeros(input.shape().clone());
        {
            let gw = self.grad_weights.data_mut();
            let gb = self.grad_bias.data_mut();
            let gi = grad_input.data_mut();
            let x = input.data();
            let w = self.weights.data();
            #[allow(clippy::needless_range_loop)] // `o` indexes three parallel buffers
            for o in 0..self.out_features {
                let go = grad_out.data()[o];
                if go == 0.0 {
                    continue;
                }
                gb[o] += go;
                let row = o * self.in_features;
                for i in 0..self.in_features {
                    gw[row + i] += go * x[i];
                    gi[i] += go * w[row + i];
                }
            }
        }
        Ok(grad_input)
    }

    /// Parameters and their accumulated gradients, for the optimizer.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        if self.grad_weights.len() != self.weights.len() {
            self.grad_weights = Tensor::zeros(self.weights.shape().clone());
            self.grad_bias = Tensor::zeros(self.bias.shape().clone());
        }
        vec![
            (&mut self.weights, &mut self.grad_weights),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }

    /// Reset accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weights = Tensor::zeros(self.weights.shape().clone());
        self.grad_bias = Tensor::zeros(self.bias.shape().clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lin = Linear::new(3, 2, &mut rng);
        // Overwrite with known weights.
        lin.weights =
            Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]).unwrap();
        lin.bias = Tensor::from_vec(Shape::d1(2), vec![0.5, -1.0]).unwrap();
        let x = Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0, 3.0]).unwrap();
        let y = lin.forward(&x).unwrap();
        assert_eq!(y.data(), &[1.0 - 3.0 + 0.5, 2.0 + 2.0 + 1.5 - 1.0]);
        assert_eq!(lin.in_features(), 3);
        assert_eq!(lin.out_features(), 2);
    }

    #[test]
    fn forward_rejects_wrong_length() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lin = Linear::new(4, 2, &mut rng);
        let x = Tensor::zeros(Shape::d1(3));
        assert!(matches!(
            lin.forward(&x),
            Err(NnError::WrongInputCount { .. })
        ));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut lin = Linear::new(4, 3, &mut rng);
        let x = Tensor::uniform(Shape::d1(4), 1.0, &mut rng);
        let coeff = Tensor::uniform(Shape::d1(3), 1.0, &mut rng);
        let objective = |lin: &mut Linear, x: &Tensor| -> f32 {
            lin.forward(x)
                .unwrap()
                .data()
                .iter()
                .zip(coeff.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        lin.zero_grad();
        let _ = lin.forward(&x).unwrap();
        let grad_in = lin.backward(&coeff).unwrap();
        let eps = 1e-3;
        for idx in 0..lin.weights.len() {
            let orig = lin.weights.data()[idx];
            lin.weights.data_mut()[idx] = orig + eps;
            let plus = objective(&mut lin, &x);
            lin.weights.data_mut()[idx] = orig - eps;
            let minus = objective(&mut lin, &x);
            lin.weights.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = lin.grad_weights.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "w{idx}: {numeric} vs {analytic}"
            );
        }
        for idx in 0..4 {
            let mut xv = x.clone();
            let orig = xv.data()[idx];
            xv.data_mut()[idx] = orig + eps;
            let plus = objective(&mut lin, &xv);
            xv.data_mut()[idx] = orig - eps;
            let minus = objective(&mut lin, &xv);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - grad_in.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        assert!(matches!(
            lin.backward(&Tensor::zeros(Shape::d1(2))),
            Err(NnError::BackwardBeforeForward)
        ));
    }

    #[test]
    fn params_and_zero_grad() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        assert_eq!(lin.params_and_grads().len(), 2);
        let x = Tensor::full(Shape::d1(2), 1.0);
        let _ = lin.forward(&x).unwrap();
        let _ = lin.backward(&Tensor::full(Shape::d1(2), 1.0)).unwrap();
        assert!(lin.grad_bias.max_abs() > 0.0);
        lin.zero_grad();
        assert_eq!(lin.grad_bias.max_abs(), 0.0);
    }
}
