//! Pooling layers.

use crate::NnError;
use serde::{Deserialize, Serialize};
use wgft_tensor::{Shape, Tensor};

/// 2x2 max pooling with stride 2 on `(1, C, H, W)` tensors.
///
/// Odd trailing rows/columns are dropped (floor division), matching the
/// behaviour of the frameworks the paper's networks were trained with.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MaxPool2 {
    #[serde(skip)]
    argmax: Option<(Shape, Vec<usize>)>,
}

impl MaxPool2 {
    /// Create a 2x2/stride-2 max-pooling layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; records the argmax [`MaxPool2::backward`] reads.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input is not 4-D.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut argmax = Vec::with_capacity(input.len() / 4);
        let out = Self::pool(input, Some(&mut argmax))?;
        self.argmax = Some((input.shape().clone(), argmax));
        Ok(out)
    }

    /// Inference-only forward pass: [`MaxPool2::forward`] without the
    /// argmax.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input is not 4-D.
    pub fn forward_inference(input: &Tensor) -> Result<Tensor, NnError> {
        Self::pool(input, None)
    }

    /// Pool `input`, pushing each window's winning input index onto
    /// `argmax` when given one.
    fn pool(input: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Result<Tensor, NnError> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(NnError::WrongInputCount {
                layer: "maxpool",
                expected: 4,
                actual: dims.len(),
            });
        }
        let (c, h, w) = (dims[1], dims[2], dims[3]);
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Vec::with_capacity(c * oh * ow);
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let iy = oy * 2 + dy;
                            let ix = ox * 2 + dx;
                            let idx = (ci * h + iy) * w + ix;
                            let v = input.data()[idx];
                            if v > best {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax.push(best_idx);
                    }
                }
            }
        }
        Ok(Tensor::from_vec(Shape::nchw(1, c, oh, ow), out)?)
    }

    /// Backward pass: routes each gradient to the position that won the max.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if forward was not called.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let (in_shape, argmax) = self.argmax.as_ref().ok_or(NnError::BackwardBeforeForward)?;
        let mut grad_in = Tensor::zeros(in_shape.clone());
        for (g, &src) in grad_out.data().iter().zip(argmax.iter()) {
            grad_in.data_mut()[src] += g;
        }
        Ok(grad_in)
    }
}

/// Global average pooling: `(1, C, H, W)` → `(C)` feature vector.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GlobalAvgPool {
    #[serde(skip)]
    input_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Create a global average pooling layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input is not 4-D.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(NnError::WrongInputCount {
                layer: "global_avg_pool",
                expected: 4,
                actual: dims.len(),
            });
        }
        let (c, h, w) = (dims[1], dims[2], dims[3]);
        let area = (h * w) as f32;
        let mut out = vec![0.0f32; c];
        for (ci, value) in out.iter_mut().enumerate() {
            let base = ci * h * w;
            *value = input.data()[base..base + h * w].iter().sum::<f32>() / area;
        }
        self.input_shape = Some(input.shape().clone());
        Ok(Tensor::from_vec(Shape::d1(c), out)?)
    }

    /// Backward pass: spreads each channel gradient evenly over the map.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if forward was not called.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let in_shape = self
            .input_shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        let dims = in_shape.dims();
        let (c, h, w) = (dims[1], dims[2], dims[3]);
        let area = (h * w) as f32;
        let mut grad_in = Tensor::zeros(in_shape.clone());
        for ci in 0..c {
            let g = grad_out.data()[ci] / area;
            let base = ci * h * w;
            for v in &mut grad_in.data_mut()[base..base + h * w] {
                *v = g;
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima_and_routes_gradients() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(
            Shape::nchw(1, 1, 4, 4),
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &Shape::nchw(1, 1, 2, 2));
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let g = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let gi = pool.backward(&g).unwrap();
        assert_eq!(gi.get4(0, 0, 1, 1).unwrap(), 1.0);
        assert_eq!(gi.get4(0, 0, 1, 3).unwrap(), 2.0);
        assert_eq!(gi.get4(0, 0, 3, 1).unwrap(), 3.0);
        assert_eq!(gi.get4(0, 0, 3, 3).unwrap(), 4.0);
        assert_eq!(gi.get4(0, 0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let mut pool = MaxPool2::new();
        let x = Tensor::full(Shape::nchw(1, 2, 5, 5), 1.0);
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &Shape::nchw(1, 2, 2, 2));
    }

    #[test]
    fn gap_averages_and_spreads() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        )
        .unwrap();
        let y = gap.forward(&x).unwrap();
        assert_eq!(y.data(), &[2.5, 10.0]);
        let g = Tensor::from_vec(Shape::d1(2), vec![4.0, 8.0]).unwrap();
        let gi = gap.backward(&g).unwrap();
        assert_eq!(gi.get4(0, 0, 0, 0).unwrap(), 1.0);
        assert_eq!(gi.get4(0, 1, 1, 1).unwrap(), 2.0);
    }

    #[test]
    fn backward_requires_forward() {
        let mut pool = MaxPool2::new();
        assert!(pool
            .backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1)))
            .is_err());
        let mut gap = GlobalAvgPool::new();
        assert!(gap.backward(&Tensor::zeros(Shape::d1(1))).is_err());
    }

    #[test]
    fn non_4d_inputs_are_rejected() {
        let mut pool = MaxPool2::new();
        assert!(pool.forward(&Tensor::zeros(Shape::d2(4, 4))).is_err());
        let mut gap = GlobalAvgPool::new();
        assert!(gap.forward(&Tensor::zeros(Shape::d1(4))).is_err());
    }
}
