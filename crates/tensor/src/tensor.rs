//! Dense `f32` tensors.

use crate::{Shape, TensorError};
use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor used by the floating-point training path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor filled with zeros.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.volume();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with a constant.
    #[must_use]
    pub fn full(shape: Shape, value: f32) -> Self {
        let len = shape.volume();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Build a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `data.len()` does not
    /// equal the shape volume.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::DataLengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// A tensor with elements drawn uniformly from `[-limit, limit]`.
    #[must_use]
    pub fn uniform<R: Rng + ?Sized>(shape: Shape, limit: f32, rng: &mut R) -> Self {
        let dist = rand::distributions::Uniform::new_inclusive(-limit, limit);
        let len = shape.volume();
        let data = (0..len).map(|_| dist.sample(rng)).collect();
        Self { shape, data }
    }

    /// Kaiming/He-style uniform initialization for a layer with `fan_in` inputs.
    #[must_use]
    pub fn he_uniform<R: Rng + ?Sized>(shape: Shape, fan_in: usize, rng: &mut R) -> Self {
        let limit = (6.0 / fan_in.max(1) as f32).sqrt();
        Self::uniform(shape, limit, rng)
    }

    /// Shape of the tensor.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Read a 4-D element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-4-D tensors and
    /// [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get4(&self, n: usize, c: usize, h: usize, w: usize) -> Result<f32, TensorError> {
        if self.shape.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: self.shape.rank(),
            });
        }
        let idx = self.shape.offset4(n, c, h, w);
        self.data
            .get(idx)
            .copied()
            .ok_or(TensorError::IndexOutOfBounds {
                index: idx,
                len: self.data.len(),
            })
    }

    /// Apply a function element-wise, producing a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise combination with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_with(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }

    /// In-place AXPY: `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Maximum absolute value (0 for an empty tensor).
    ///
    /// The reduction is a pinned compare-and-assign loop rather than a
    /// `fold(0.0, f32::max)`: the `maxnum`-intrinsic lowering of the fold
    /// has been observed to return a non-maximal element under `--release`
    /// with `-C target-cpu=native` on some hosts, and the explicit loop
    /// keeps the result exact (a max of finite floats has no rounding, so
    /// there is nothing to trade away). Guarded by a regression test
    /// against a naive scalar reference in both profiles.
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        let mut m = 0.0f32;
        for &v in &self.data {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }
}

/// Identity `AsRef`, so batch APIs can accept `&[Tensor]` and `&[&Tensor]`
/// interchangeably (owned sample images or borrows from a dataset).
impl AsRef<Tensor> for Tensor {
    fn as_ref(&self) -> &Tensor {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_full_and_from_vec() {
        let t = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&v| v == 0.0));
        let t = Tensor::full(Shape::d1(4), 2.5);
        assert!(t.data().iter().all(|&v| v == 2.5));
        assert!(Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0]).is_err());
        assert!(Tensor::from_vec(Shape::d1(2), vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn get_set_4d() {
        let mut t = Tensor::zeros(Shape::nchw(1, 2, 3, 3));
        let at = t.shape().offset4(0, 1, 2, 2);
        t.data_mut()[at] = 7.0;
        assert_eq!(t.get4(0, 1, 2, 2).unwrap(), 7.0);
        assert_eq!(t.get4(0, 0, 0, 0).unwrap(), 0.0);
        let bad_rank = Tensor::zeros(Shape::d2(2, 2));
        assert!(matches!(
            bad_rank.get4(0, 0, 0, 0),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn elementwise_ops_check_shapes() {
        let a = Tensor::full(Shape::d1(3), 1.0);
        let b = Tensor::full(Shape::d1(3), 2.0);
        let c = a.add(&b).unwrap();
        assert_eq!(c.data(), &[3.0, 3.0, 3.0]);
        let d = b.sub(&a).unwrap();
        assert_eq!(d.data(), &[1.0, 1.0, 1.0]);
        let wrong = Tensor::full(Shape::d1(4), 0.0);
        assert!(a.add(&wrong).is_err());
    }

    #[test]
    fn axpy_scale_and_max_abs() {
        let mut a = Tensor::full(Shape::d1(3), 1.0);
        let b = Tensor::from_vec(Shape::d1(3), vec![1.0, -4.0, 2.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[1.5, -1.0, 2.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, -2.0, 4.0]);
        assert_eq!(a.max_abs(), 4.0);
    }

    /// Regression test for a release-mode (`-C target-cpu=native`)
    /// miscompile of the previous `fold(0.0, f32::max)` reduction, which
    /// returned a non-maximal element (`axpy_scale_and_max_abs` caught it
    /// on the data `[3.0, -2.0, 4.0]`). `max_abs` is exact, so it must
    /// equal a naive scalar scan bit-for-bit in *both* profiles, for every
    /// length (vector remainders included) and every maximum position.
    #[test]
    fn max_abs_matches_naive_reference_in_both_profiles() {
        for len in [1usize, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 257] {
            for max_at in [0, len / 2, len - 1] {
                let mut data: Vec<f32> = (0..len)
                    .map(|i| {
                        let v = (i as f32).mul_add(0.37, -3.0);
                        if i % 2 == 0 {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect();
                data[max_at] = if max_at % 2 == 0 { 1.0e6 } else { -1.0e6 };
                let mut naive = 0.0f32;
                for &v in &data {
                    if v.abs() > naive {
                        naive = v.abs();
                    }
                }
                let t = Tensor::from_vec(Shape::d1(len), data).unwrap();
                assert_eq!(
                    t.max_abs(),
                    naive,
                    "len {len}, max at {max_at}: max_abs must match the naive scan"
                );
                assert_eq!(t.max_abs(), 1.0e6);
            }
        }
        assert_eq!(Tensor::zeros(Shape::d1(0)).max_abs(), 0.0, "empty tensor");
    }

    #[test]
    fn random_initializers_respect_limits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Tensor::uniform(Shape::d1(256), 0.1, &mut rng);
        assert!(t.max_abs() <= 0.1);
        let h = Tensor::he_uniform(Shape::d2(16, 9), 9, &mut rng);
        assert!(h.max_abs() <= (6.0f32 / 9.0).sqrt());
    }
}
