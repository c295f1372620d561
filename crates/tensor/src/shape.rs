//! Tensor shape descriptor.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape (dimension sizes) of a dense, row-major tensor.
///
/// Shapes of up to four dimensions are used throughout the workspace:
/// `NCHW` feature maps, `(out, in, kh, kw)` convolution kernels and
/// `(rows, cols)` matrices.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Create a shape from an explicit dimension list.
    #[must_use]
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Self(dims.into())
    }

    /// A 1-D shape.
    #[must_use]
    pub fn d1(n: usize) -> Self {
        Self(vec![n])
    }

    /// A 2-D (rows, cols) shape.
    #[must_use]
    pub fn d2(rows: usize, cols: usize) -> Self {
        Self(vec![rows, cols])
    }

    /// A 4-D (batch, channels, height, width) shape.
    #[must_use]
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self(vec![n, c, h, w])
    }

    /// Dimension sizes.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    #[must_use]
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major flat offset of a 4-D index. Callers must ensure the shape is 4-D.
    #[must_use]
    pub fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.rank(), 4);
        ((n * self.0[1] + c) * self.0[2] + h) * self.0[3] + w
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Self(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Self(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_volume() {
        assert_eq!(Shape::d1(5).volume(), 5);
        assert_eq!(Shape::d2(3, 4).volume(), 12);
        assert_eq!(Shape::new(vec![2, 3, 4]).volume(), 24);
        assert_eq!(Shape::nchw(2, 3, 4, 5).volume(), 120);
        assert_eq!(Shape::nchw(2, 3, 4, 5).rank(), 4);
    }

    #[test]
    fn offsets_are_row_major() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.offset4(0, 0, 0, 0), 0);
        assert_eq!(s.offset4(0, 0, 0, 1), 1);
        assert_eq!(s.offset4(0, 0, 1, 0), 5);
        assert_eq!(s.offset4(0, 1, 0, 0), 20);
        assert_eq!(s.offset4(1, 0, 0, 0), 60);
    }

    #[test]
    fn display_and_conversions() {
        let s = Shape::nchw(1, 2, 3, 4);
        assert_eq!(s.to_string(), "[1x2x3x4]");
        let from_vec: Shape = vec![1, 2].into();
        assert_eq!(from_vec, Shape::d2(1, 2));
        let from_slice: Shape = [3usize, 4].as_slice().into();
        assert_eq!(from_slice, Shape::d2(3, 4));
    }

    #[test]
    fn empty_shape_has_volume_one() {
        // A rank-0 shape represents a scalar.
        assert_eq!(Shape::new(Vec::<usize>::new()).volume(), 1);
    }
}
