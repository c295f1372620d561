//! Winograd convolution transforms, kernels and operation-count models.
//!
//! Winograd convolution computes a 2-D convolution by linearly transforming
//! the input tile and the filter into a different domain, multiplying
//! element-wise, and transforming back:
//!
//! ```text
//! Y = At [ (G g Gt) . (Bt d B) ] A          (Equation 1 of the paper)
//! ```
//!
//! which trades expensive multiplications for cheap additions. The DAC'22
//! paper studies a second, previously overlooked consequence of that trade:
//! because multiplications are the operations whose soft-error corruption
//! hurts model accuracy the most, winograd convolution is also *more fault
//! tolerant* than standard convolution.
//!
//! This crate provides:
//!
//! * [`WinogradVariant`] and the constant transform matrices
//!   (F(2x2,3x3), F(4x4,3x3) and the 1-D F(2,3)),
//! * the planned winograd engine: one cache-blocked scatter→GEMM→gather
//!   schedule in two number domains, [`PreparedConvF32`] (float
//!   evaluation) and [`PreparedConvQuantizedFast`] (every fast,
//!   uninstrumented quantized pass, with [`RangeStage`] and fault-site
//!   replay hooks),
//! * instrumented quantized kernels ([`direct_conv_quantized`],
//!   [`winograd_conv_quantized`]) that execute every primitive multiply and
//!   add through a [`wgft_faultsim::Arithmetic`] backend so that faults can
//!   be injected at operation level — the oracle the fast domain is
//!   bit-identical to,
//! * fault-site replay ([`DirectOpMap`], [`WinogradOpMap`], [`DirectReplay`],
//!   `PreparedConvQuantizedFast::execute_replay_into`): the instrumented
//!   kernels' exact operation order, so a layer's enumerated strikes can be
//!   applied to the fast engines' accumulators bit-identically,
//! * analytic operation-count models ([`ConvOpModel`]) used by the
//!   fine-grained TMR overhead accounting and the accelerator timing model,
//! * the decomposable winograd method ([`dwm`](crate::decompose_kernel)) that
//!   splits larger kernels into 3x3 tiles so they can also ride the winograd
//!   datapath.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv_standard;
mod conv_winograd;
mod dwm;
mod error;
mod opcount;
mod plan;
mod quantized_fast;
mod replay;
mod transform;

pub use conv_standard::{direct_conv_quantized, ConvShape};
pub use conv_winograd::{
    integer_transform, transform_weights_f32, winograd_conv_f32_reference, winograd_conv_quantized,
    winograd_conv_quantized_with_scratch, MatrixSide, WinogradWeights,
};
pub use dwm::{decompose_kernel, dwm_conv_f32, KernelTile};
pub use error::WinogradError;
pub use opcount::{ConvAlgorithm, ConvOpModel};
pub use plan::{PreparedConvF32, WinogradPlan, WinogradScratch};
pub use quantized_fast::{
    PreparedConvQuantizedFast, QuantizedRangeRecord, RangeStage, StageBlock, MAX_FAST_INPUT,
};
pub use replay::{DirectOpMap, DirectReplay, WinogradOpMap};
pub use transform::{WinogradVariant, F2X2_3X3, F4X4_3X3, F6X6_3X3};
