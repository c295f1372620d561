//! Dense NCHW tensors, shape math, im2col and the blocked GEMM for the
//! `winograd-ft` workspace.
//!
//! This crate is the data-layout substrate shared by the training path
//! (`f32` tensors, [`Tensor`]) and the convolution kernels: the patch
//! lowering ([`im2col`], float and quantized words), convolution geometry
//! ([`ConvGeometry`]) and one cache-blocked, register-tiled GEMM in two
//! number domains — [`gemm_f32`] and the accumulating [`gemm_f32_acc`]
//! (f32 words and accumulators) and [`gemm_i32`] (i32 words, i64
//! accumulators) — plus the exact chain dot product fault-site replay uses
//! ([`dot_i32`]).
//!
//! Everything is deliberately simple: row-major dense storage, explicit shape
//! checks that return [`TensorError`] instead of panicking, a fixed
//! accumulation order per output, and no hidden parallelism — the
//! fault-injection experiments need deterministic, instrumentable execution.
//!
//! # Example
//!
//! ```
//! use wgft_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), wgft_tensor::TensorError> {
//! let x = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
//! assert_eq!(x.len(), 3 * 8 * 8);
//! let y = x.map(|v| v + 1.0);
//! assert_eq!(y.get4(0, 2, 7, 7)?, 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod im2col;
mod ops;
mod shape;
mod tensor;

pub use error::TensorError;
pub use im2col::im2col;
pub use ops::{dot_i32, gemm_f32, gemm_f32_acc, gemm_i32, ConvGeometry};
pub use shape::Shape;
pub use tensor::Tensor;
