//! Quantized fixed-point inference: one node loop, three datapaths.
//!
//! [`QuantizedNetwork`] is the execution substrate of every fault-tolerance
//! experiment: a trained floating-point [`Network`] is calibrated and
//! converted to 8-bit or 16-bit fixed point. One private node loop runs the
//! graph for every entry point. It alone quantizes the input, gathers and
//! length-checks each node's inputs, requantizes each compute layer's
//! accumulators with its bias, runs activation, pooling and joins, and
//! dequantizes the logits. A datapath supplies only how a compute layer
//! fills its wide accumulators and what happens to its requantized output:
//!
//! - **instrumented** ([`QuantizedNetwork::forward`]): every
//!   multiply-accumulate goes through a [`wgft_faultsim::Arithmetic`]
//!   backend, under standard or winograd convolution per call. Soft errors
//!   injected by a [`wgft_faultsim::FaultyArithmetic`] therefore corrupt
//!   exactly the operations the chosen algorithm performs — the property
//!   that lets the platform distinguish ST-Conv from WG-Conv where
//!   neuron-level injectors cannot (Figure 1). An optional neuron-level
//!   injector corrupts layer outputs instead
//!   ([`QuantizedNetwork::forward_with_neuron_faults`]). This is the oracle.
//! - **instrumented ABFT** ([`QuantizedNetwork::forward_abft`]): the same
//!   backend through the protected `wgft-abft` executors.
//! - **fast** ([`QuantizedNetwork::forward_fast`], batched by
//!   [`QuantizedNetwork::forward_fast_batch`]): the uninstrumented integer
//!   engines. A single-image pass takes at most one rider: fault-site
//!   replay ([`QuantizedNetwork::forward_replay`]), which draws the strikes
//!   a `FaultyArithmetic` would inject up front and recomputes only the
//!   operations they touch, bit-identically; fault-free protection with
//!   every ABFT check of its policy ([`QuantizedNetwork::forward_abft_fast`]);
//!   the neuron-level baseline ([`QuantizedNetwork::forward_neuron_level`]);
//!   or the ABFT range recorder ([`QuantizedNetwork::calibrate_abft`]).

use crate::{InputRef, Layer, Network, NnError};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;
use wgft_abft::{
    abft_direct_conv, abft_linear, abft_winograd_conv, clip_accumulators, fast_gemm_ok,
    observe_max, AbftCalibration, AbftEvents, AbftMode, AbftPolicy, AbftRun, AbftScratch,
    WinogradChecks,
};
use wgft_data::argmax;
use wgft_faultsim::{
    split_strikes, Arithmetic, ExactArithmetic, MacChain, MacChainReplay, MacOps,
    NeuronLevelInjector, OpCount, OpSequence, OpType, Strike, StrikeEnumerator,
};
use wgft_fixedpoint::{BitWidth, QFormat, Quantizer};
use wgft_tensor::{dot_i32, gemm_i32, im2col, Tensor};
use wgft_winograd::{
    direct_conv_quantized, transform_weights_f32, winograd_conv_quantized_with_scratch,
    ConvAlgorithm, ConvOpModel, ConvShape, DirectOpMap, DirectReplay, PreparedConvQuantizedFast,
    QuantizedRangeRecord, WinogradOpMap, WinogradScratch, WinogradVariant, WinogradWeights,
};

/// Options controlling the float → fixed-point conversion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantizerOptions {
    /// Storage width of activations and weights.
    pub width: BitWidth,
    /// Winograd tile variant prepared for the 3x3 layers.
    pub variant: WinogradVariant,
    /// Headroom multiplier applied to calibrated activation ranges.
    pub activation_margin: f32,
}

impl QuantizerOptions {
    /// Options for the given storage width with the paper's defaults
    /// (F(2x2,3x3) tiles, 25 % activation headroom).
    #[must_use]
    pub fn new(width: BitWidth) -> Self {
        Self {
            width,
            variant: WinogradVariant::F2x2,
            activation_margin: 1.25,
        }
    }
}

/// A quantized node operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum QOp {
    Conv {
        shape: ConvShape,
        weights: Vec<i32>,
        weight_frac: u32,
        winograd: Option<WinogradWeights>,
        winograd_frac: u32,
        bias: Vec<f32>,
        layer_id: usize,
    },
    Linear {
        in_features: usize,
        out_features: usize,
        weights: Vec<i32>,
        weight_frac: u32,
        bias: Vec<f32>,
        layer_id: usize,
    },
    Relu,
    MaxPool {
        channels: usize,
        in_h: usize,
        in_w: usize,
    },
    GlobalAvgPool {
        channels: usize,
        in_h: usize,
        in_w: usize,
    },
    Add,
    Concat,
}

impl QOp {
    /// A compute op's layer id and analytic operation count under `algo`
    /// (`None` for the other ops).
    fn op_count(&self, algo: ConvAlgorithm) -> Option<(usize, OpCount)> {
        match self {
            QOp::Conv {
                shape, layer_id, ..
            } => Some((*layer_id, ConvOpModel::count(shape, algo))),
            QOp::Linear {
                in_features,
                out_features,
                layer_id,
                ..
            } => {
                let macs = (in_features * out_features) as u64;
                Some((
                    *layer_id,
                    OpCount {
                        mul: macs,
                        add: macs,
                    },
                ))
            }
            _ => None,
        }
    }

    /// The operations a standard convolution spends per output value of
    /// this compute op, which has `outputs` of them — the neuron-level
    /// injector's fault opportunities per neuron. The neuron-level baseline
    /// always sees the *standard* convolution operation volume: a generic
    /// framework has no visibility into the conv algorithm, which is
    /// exactly the blind spot Figure 1 exposes.
    fn neuron_ops(&self, outputs: usize) -> u64 {
        self.op_count(ConvAlgorithm::Standard)
            .map_or(0, |(_, count)| count.total())
            / outputs.max(1) as u64
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QNode {
    op: QOp,
    inputs: Vec<InputRef>,
    out_format: QFormat,
}

impl QNode {
    /// Evaluate one image's non-compute op (activation / pooling / join)
    /// for the node loop, the one copy of these semantics every datapath
    /// shares. Returns `None` for Conv/Linear, whose accumulators the
    /// datapath fills.
    fn forward_simple<'a, G>(&self, gather: G) -> Option<(Vec<i32>, QFormat)>
    where
        G: Fn(&InputRef) -> (&'a [i32], QFormat),
    {
        Some(match &self.op {
            QOp::Conv { .. } | QOp::Linear { .. } => return None,
            QOp::Relu => {
                let (input, in_format) = gather(&self.inputs[0]);
                (input.iter().map(|&v| v.max(0)).collect(), in_format)
            }
            QOp::MaxPool {
                channels,
                in_h,
                in_w,
            } => {
                let (input, in_format) = gather(&self.inputs[0]);
                (maxpool_raw(input, *channels, *in_h, *in_w), in_format)
            }
            QOp::GlobalAvgPool {
                channels,
                in_h,
                in_w,
            } => {
                let (input, in_format) = gather(&self.inputs[0]);
                (gap_raw(input, *channels, *in_h, *in_w), in_format)
            }
            QOp::Add => {
                let (a, fa) = gather(&self.inputs[0]);
                let (b, fb) = gather(&self.inputs[1]);
                let out = a
                    .iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| {
                        let sum = fa.dequantize(x) + fb.dequantize(y);
                        self.out_format.quantize(sum)
                    })
                    .collect();
                (out, self.out_format)
            }
            QOp::Concat => {
                let mut out = Vec::new();
                for input_ref in &self.inputs {
                    let (data, fmt) = gather(input_ref);
                    out.extend(data.iter().map(|&v| {
                        self.out_format
                            .requantize_accumulator(i64::from(v), fmt.frac_bits())
                    }));
                }
                (out, self.out_format)
            }
        })
    }
}

/// A hook called on each compute layer's wide accumulator span after the
/// kernel fills it and before its checks and requantization (tests corrupt
/// the fast engines through it).
type AccumulatorHook<'a> = dyn FnMut(&mut [i64]) + 'a;

/// What rides along one single-image fast pass besides the plain
/// computation.
enum FastRider<'a> {
    /// Range recorder of the ABFT calibration pass.
    Record(&'a mut AbftCalibration),
    /// Fault-site replay.
    Replay(&'a mut StrikeEnumerator),
    /// Neuron-level injection into each compute layer's requantized output.
    Neuron(&'a mut NeuronLevelInjector),
    /// Fault-free ABFT protection.
    Abft(FastAbft<'a>),
}

/// The state of one fault-free protected pass on the fast engines.
struct FastAbft<'a> {
    policy: &'a AbftPolicy,
    calibration: Option<&'a AbftCalibration>,
    scratch: &'a mut AbftScratch,
    /// Events of this pass, kept apart until every check has held.
    events: AbftEvents,
    /// Whether every check so far held.
    held: bool,
}

/// Prepared per-network state for the **fast uninstrumented** forward pass
/// ([`QuantizedNetwork::forward_fast`], [`QuantizedNetwork::forward_replay`],
/// [`QuantizedNetwork::forward_neuron_level`],
/// [`QuantizedNetwork::forward_abft_fast`]):
/// cached [`PreparedConvQuantizedFast`] plans for every winograd-capable
/// convolution node, the per-layer operation maps fault-site replay
/// enumerates strikes over, plus reusable im2col / accumulator / strike
/// scratch, so repeated inferences allocate little per image.
///
/// Obtain one from [`QuantizedNetwork::prepare_fast`]; it is only valid for
/// the network that prepared it. Cloning gives an independent scratch for
/// another worker thread.
#[derive(Debug, Clone)]
pub struct FastInference {
    /// Node index → prepared fast winograd plan (3x3 unit-stride conv nodes
    /// with winograd weights only).
    wino: Vec<Option<PreparedConvQuantizedFast>>,
    /// Compute-layer id → operation map under standard convolution (shared
    /// between clones, like the prepared weights).
    ops_standard: Arc<[LayerOps]>,
    /// Compute-layer id → operation map under winograd convolution.
    ops_winograd: Arc<[LayerOps]>,
    /// im2col patch matrix scratch for fast direct convolution, `(C·k², P)`.
    im2col: Vec<i32>,
    /// Wide-accumulator scratch shared by all compute layers.
    acc: Vec<i64>,
    /// One layer's replayed strikes.
    strikes: Vec<Strike>,
    /// Patch-row scratch of direct-convolution replay.
    direct_replay: DirectReplay,
    /// Images [`QuantizedNetwork::forward_abft_fast`] reran on the
    /// instrumented executors because a check failed.
    abft_fallbacks: u64,
}

impl FastInference {
    /// How many images [`QuantizedNetwork::forward_abft_fast`] has rerun on
    /// the instrumented executors because a check on the fast engines
    /// failed (zero unless the fast engines disagree with the instrumented
    /// ones).
    #[must_use]
    pub fn abft_fallbacks(&self) -> u64 {
        self.abft_fallbacks
    }
}

/// The primitive-operation sequence one compute layer issues on the
/// instrumented datapath ([`QuantizedNetwork::forward`]) — what fault-site
/// replay enumerates strikes over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerOps {
    /// A convolution executed by the direct kernel.
    Direct(DirectOpMap),
    /// A convolution executed by the winograd kernel.
    Winograd(WinogradOpMap),
    /// A fully-connected layer: one `mul`, `add` pair per weight.
    Linear(MacOps),
}

impl OpSequence for LayerOps {
    fn op_count(&self) -> u64 {
        match self {
            LayerOps::Direct(map) => map.op_count(),
            LayerOps::Winograd(map) => map.op_count(),
            LayerOps::Linear(ops) => ops.op_count(),
        }
    }

    fn op_type(&self, op: u64) -> OpType {
        match self {
            LayerOps::Direct(map) => map.op_type(op),
            LayerOps::Winograd(map) => map.op_type(op),
            LayerOps::Linear(ops) => ops.op_type(op),
        }
    }
}

/// A fixed-point network ready for instrumented inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedNetwork {
    name: String,
    width: BitWidth,
    variant: WinogradVariant,
    input_format: QFormat,
    nodes: Vec<QNode>,
    compute_layers: usize,
    num_classes: usize,
}

impl QuantizedNetwork {
    /// Convert a trained floating-point network to fixed point.
    ///
    /// `calibration` is a set of representative images used to size the
    /// per-layer activation formats (a handful of training images suffices).
    ///
    /// # Errors
    ///
    /// Returns an [`NnError`] if the network cannot be executed on the
    /// calibration images or a calibration range is degenerate.
    pub fn from_network(
        network: &mut Network,
        calibration: &[Tensor],
        options: QuantizerOptions,
    ) -> Result<Self, NnError> {
        if network.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        // ---- Calibrate per-node activation ranges over the calibration set.
        let mut node_max = vec![0.0f32; network.len()];
        let mut input_max = 0.0f32;
        for image in calibration {
            input_max = input_max.max(image.max_abs());
            let trace = network.forward_trace(image)?;
            for (max, activation) in node_max.iter_mut().zip(trace.iter()) {
                *max = max.max(activation.max_abs());
            }
        }
        let quantizer = Quantizer::symmetric(options.width).with_margin(options.activation_margin);
        let input_format = quantizer.format_for_max_abs(input_max.max(1e-6));
        let weight_quantizer = Quantizer::symmetric(options.width);

        // Trace of the first calibration image: used to recover the spatial
        // dimensions feeding each pooling node.
        let first_image = calibration
            .first()
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(wgft_tensor::Shape::nchw(1, 1, 8, 8)));
        let first_trace = network.forward_trace(&first_image)?;
        let dims_of_input = |inputs: &[InputRef]| -> (usize, usize, usize) {
            let tensor = match inputs.first() {
                Some(InputRef::Image) | None => &first_image,
                Some(InputRef::Node(n)) => &first_trace[*n],
            };
            let dims = tensor.shape().dims();
            (dims[1], dims[2], dims[3])
        };

        let mut nodes = Vec::with_capacity(network.len());
        let mut layer_id = 0usize;
        let mut num_classes = 0usize;
        for (node, max_abs) in network.nodes().iter().zip(node_max.iter()) {
            let out_format = quantizer.format_for_max_abs(max_abs.max(1e-6));
            let op = match &node.layer {
                Layer::Conv(conv) => {
                    let shape = *conv.conv_shape();
                    let w_f32 = conv.weights().data();
                    let weight_format = weight_quantizer.calibrate(w_f32)?;
                    let weights = weight_format.quantize_slice(w_f32);
                    // Winograd-domain weights for 3x3 unit-stride layers.
                    let (winograd, winograd_frac) = if shape.geometry.is_unit_stride_3x3() {
                        let u = transform_weights_f32(
                            w_f32,
                            shape.out_channels,
                            shape.in_channels,
                            options.variant,
                        )?;
                        let u_format = weight_quantizer.calibrate(&u)?;
                        let u_q = u_format.quantize_slice(&u);
                        (
                            Some(WinogradWeights::new(
                                options.variant,
                                shape.out_channels,
                                shape.in_channels,
                                u_q,
                            )?),
                            u_format.frac_bits(),
                        )
                    } else {
                        (None, 0)
                    };
                    let op = QOp::Conv {
                        shape,
                        weights,
                        weight_frac: weight_format.frac_bits(),
                        winograd,
                        winograd_frac,
                        bias: conv.bias().data().to_vec(),
                        layer_id,
                    };
                    layer_id += 1;
                    op
                }
                Layer::Linear(linear) => {
                    let w_f32 = linear.weights().data();
                    let weight_format = weight_quantizer.calibrate(w_f32)?;
                    num_classes = linear.out_features();
                    let op = QOp::Linear {
                        in_features: linear.in_features(),
                        out_features: linear.out_features(),
                        weights: weight_format.quantize_slice(w_f32),
                        weight_frac: weight_format.frac_bits(),
                        bias: linear.bias().data().to_vec(),
                        layer_id,
                    };
                    layer_id += 1;
                    op
                }
                Layer::Relu(_) => QOp::Relu,
                Layer::MaxPool(_) => {
                    let dims = dims_of_input(&node.inputs);
                    QOp::MaxPool {
                        channels: dims.0,
                        in_h: dims.1,
                        in_w: dims.2,
                    }
                }
                Layer::GlobalAvgPool(_) => {
                    let dims = dims_of_input(&node.inputs);
                    QOp::GlobalAvgPool {
                        channels: dims.0,
                        in_h: dims.1,
                        in_w: dims.2,
                    }
                }
                Layer::Add(_) => QOp::Add,
                Layer::Concat(_) => QOp::Concat,
            };
            nodes.push(QNode {
                op,
                inputs: node.inputs.clone(),
                out_format,
            });
        }

        Ok(Self {
            name: network.name().to_string(),
            width: options.width,
            variant: options.variant,
            input_format,
            nodes,
            compute_layers: layer_id,
            num_classes,
        })
    }

    /// The network's name (copied from the floating-point model).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Storage width of activations and weights.
    #[must_use]
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Number of convolution / fully-connected layers (the unit of the paper's
    /// layer-wise analysis and of [`wgft_faultsim::ProtectionPlan`] layer ids).
    #[must_use]
    pub fn compute_layer_count(&self) -> usize {
        self.compute_layers
    }

    /// Number of output classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Analytic per-layer operation counts under the given convolution
    /// algorithm, indexed by compute-layer id.
    #[must_use]
    pub fn layer_op_counts(&self, algo: ConvAlgorithm) -> Vec<OpCount> {
        let mut counts = vec![OpCount::default(); self.compute_layers];
        for node in &self.nodes {
            if let Some((layer_id, count)) = node.op.op_count(algo) {
                counts[layer_id] = count;
            }
        }
        counts
    }

    /// Total operation count under the given algorithm.
    #[must_use]
    pub fn total_op_count(&self, algo: ConvAlgorithm) -> OpCount {
        self.layer_op_counts(algo)
            .into_iter()
            .fold(OpCount::default(), |acc, c| acc + c)
    }

    /// Run inference through the instrumented backend and return the
    /// dequantized logits.
    ///
    /// # Errors
    ///
    /// Returns an [`NnError`] if the graph or buffer shapes are inconsistent.
    pub fn forward<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
    ) -> Result<Vec<f32>, NnError> {
        let scratch = &mut WinogradScratch::new();
        self.walk_one(image, algo, &mut Instrumented::new(arith, scratch, None))
    }

    /// Run inference and return the predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward(image, arith, algo)?))
    }

    /// [`QuantizedNetwork::classify`] with a caller-owned winograd scratch
    /// arena, so batch evaluation loops can reuse one set of buffers across
    /// many images instead of reallocating per forward pass. Results are
    /// bit-identical to [`QuantizedNetwork::classify`] (the kernels clear
    /// the scratch before use).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify_with_scratch<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
        scratch: &mut WinogradScratch,
    ) -> Result<usize, NnError> {
        let mut path = Instrumented::new(arith, scratch, None);
        Ok(argmax(&self.walk_one(image, algo, &mut path)?))
    }

    /// Prepare the cached plans and scratch of the fast uninstrumented
    /// forward pass ([`QuantizedNetwork::forward_fast`]).
    ///
    /// # Errors
    ///
    /// Returns an [`NnError`] if a winograd-capable layer's cached weights
    /// are inconsistent with its shape (cannot happen for a network built by
    /// [`QuantizedNetwork::from_network`]).
    pub fn prepare_fast(&self) -> Result<FastInference, NnError> {
        let wino = self.nodes.iter().map(|node| match &node.op {
            QOp::Conv {
                shape,
                winograd: Some(w),
                ..
            } if shape.geometry.is_unit_stride_3x3() => {
                PreparedConvQuantizedFast::new(w, shape).map(Some)
            }
            _ => Ok(None),
        });
        Ok(FastInference {
            wino: wino.collect::<Result<_, _>>()?,
            ops_standard: self.layer_ops(ConvAlgorithm::Standard)?.into(),
            ops_winograd: self.layer_ops(ConvAlgorithm::winograd_default())?.into(),
            im2col: Vec::new(),
            acc: Vec::new(),
            strikes: Vec::new(),
            direct_replay: DirectReplay::default(),
            abft_fallbacks: 0,
        })
    }

    /// The exact per-layer operation sequences the instrumented forward
    /// pass issues under `algo`, indexed by compute-layer id. Unlike
    /// [`QuantizedNetwork::layer_op_counts`] (the analytic model, which
    /// prices every direct-convolution tap), these skip the taps that fall
    /// on padding, exactly as the kernels do. A winograd algorithm runs the
    /// tile variant the network was quantized for.
    ///
    /// # Errors
    ///
    /// Cannot fail for a network built by [`QuantizedNetwork::from_network`];
    /// returns an [`NnError`] if a winograd layer's geometry is unsupported.
    pub fn layer_ops(&self, algo: ConvAlgorithm) -> Result<Vec<LayerOps>, NnError> {
        let mut ops = Vec::with_capacity(self.compute_layers);
        for node in &self.nodes {
            ops.push(match &node.op {
                QOp::Conv {
                    shape, winograd, ..
                } => match Self::winograd_weights(algo, shape, winograd) {
                    Some(w) => LayerOps::Winograd(WinogradOpMap::new(shape, w.variant())?),
                    None => LayerOps::Direct(DirectOpMap::new(shape)),
                },
                QOp::Linear {
                    in_features,
                    out_features,
                    ..
                } => LayerOps::Linear(MacOps((in_features * out_features) as u64)),
                _ => continue,
            });
        }
        Ok(ops)
    }

    /// The winograd weights a convolution node runs under `algo` (`None`
    /// when it runs the direct kernel).
    fn winograd_weights<'w>(
        algo: ConvAlgorithm,
        shape: &ConvShape,
        winograd: &'w Option<WinogradWeights>,
    ) -> Option<&'w WinogradWeights> {
        winograd
            .as_ref()
            .filter(|_| matches!(algo, ConvAlgorithm::Winograd(_)))
            .filter(|_| shape.geometry.is_unit_stride_3x3())
    }

    /// Run **fault-free** inference on the fast uninstrumented path and
    /// return the dequantized logits.
    ///
    /// Convolution layers execute through [`PreparedConvQuantizedFast`]
    /// (winograd) or an im2col [`gemm_i32`] factorization (standard /
    /// non-winograd geometries); fully-connected layers run plain widening
    /// dot products. No [`Arithmetic`] backend is involved: operation-level
    /// faults reach this path only through fault-site replay
    /// ([`QuantizedNetwork::forward_replay`]).
    ///
    /// The logits are **bit-identical** to
    /// [`QuantizedNetwork::forward`] over [`ExactArithmetic`] (integer
    /// kernels are exact, and everything around them — input quantization,
    /// requantization, activation, pooling, joins — is the one node loop
    /// both run) — the tested guarantee that lets campaign clean
    /// baselines, BER=0 sweep cells and ABFT calibration route here without
    /// changing a single journaled result.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_fast(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<Vec<f32>, NnError> {
        self.walk_one(image, algo, &mut Fast::new(fast, None))
    }

    /// Operation-level fault injection on the fast path, by **fault-site
    /// replay**: logits bit-identical to [`QuantizedNetwork::forward`] over
    /// a [`wgft_faultsim::FaultyArithmetic`] built from the same
    /// configuration and seed as `faults` — tested over models, algorithms,
    /// tile sizes, fault models, protection plans and rates.
    ///
    /// `faults` draws each compute layer's strikes over its exact
    /// instrumented operation sequence ([`QuantizedNetwork::layer_ops`]);
    /// the layer runs on the fast engines with its actual, possibly
    /// corrupted, input, and only what the struck operations touch is
    /// recomputed — each struck accumulation chain from its exact value,
    /// and struck winograd transforms inside the engine's block loop —
    /// before the layer requantizes. `faults` must be fresh (one enumerator
    /// per image).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_replay(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
        faults: &mut StrikeEnumerator,
    ) -> Result<Vec<f32>, NnError> {
        let mut path = Fast::new(fast, Some(FastRider::Replay(faults)));
        self.walk_one(image, algo, &mut path)
    }

    /// [`QuantizedNetwork::forward_replay`] returning the predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify_replay(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
        faults: &mut StrikeEnumerator,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward_replay(image, algo, fast, faults)?))
    }

    /// [`QuantizedNetwork::forward_fast`] returning the predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify_fast(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward_fast(image, algo, fast)?))
    }

    /// Run **fault-free** inference on the fast path for a whole batch of
    /// images at once, returning one logits vector per image.
    ///
    /// This is [`QuantizedNetwork::forward_fast`]'s node loop over an
    /// `N`-image slab. Winograd convolution layers coalesce the batch into
    /// the planned engine's GEMM free dimension (`N·P` tiles via
    /// [`PreparedConvQuantizedFast::execute_batch_into`]); every other
    /// kernel and op runs per image. Both are bit-identical to per-image
    /// execution — tested — so the logits equal `n` calls to
    /// [`QuantizedNetwork::forward_fast`] for **any** batch coalescing
    /// schedule. This is the substrate of `wgft-serve`'s micro-batching:
    /// how concurrent requests were grouped can never change an answer.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`]; additionally rejects batches
    /// whose images disagree in length.
    pub fn forward_fast_batch<T: AsRef<Tensor>>(
        &self,
        images: &[T],
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<Vec<Vec<f32>>, NnError> {
        self.walk(images, algo, &mut Fast::new(fast, None))
    }

    /// [`QuantizedNetwork::forward_fast_batch`] returning one predicted
    /// class per image.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward_fast_batch`].
    pub fn classify_fast_batch<T: AsRef<Tensor>>(
        &self,
        images: &[T],
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<Vec<usize>, NnError> {
        Ok(self
            .forward_fast_batch(images, algo, fast)?
            .iter()
            .map(|logits| argmax(logits))
            .collect())
    }

    /// Run inference with a *neuron-level* injector corrupting every compute
    /// layer's output values (the TensorFI/PyTorchFI-style baseline of
    /// Figure 1). The arithmetic itself is exact. This instrumented pass is
    /// the oracle of [`QuantizedNetwork::forward_neuron_level`].
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_with_neuron_faults(
        &self,
        image: &Tensor,
        injector: &mut NeuronLevelInjector,
        algo: ConvAlgorithm,
    ) -> Result<Vec<f32>, NnError> {
        let (exact, scratch) = (&mut ExactArithmetic::new(), &mut WinogradScratch::new());
        self.walk_one(
            image,
            algo,
            &mut Instrumented::new(exact, scratch, Some(injector)),
        )
    }

    /// Neuron-level injection on the fast path: the fault-free fast engines
    /// compute each compute layer, and `injector` corrupts its requantized
    /// output before the next layer reads it. Logits are bit-identical to
    /// [`QuantizedNetwork::forward_with_neuron_faults`] with an identically
    /// seeded injector — tested over models, algorithms, tile sizes and
    /// rates — because the fast engines produce the same layer outputs and
    /// the injector draws from its own stream, never from the values.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_neuron_level(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
        injector: &mut NeuronLevelInjector,
    ) -> Result<Vec<f32>, NnError> {
        let mut path = Fast::new(fast, Some(FastRider::Neuron(injector)));
        self.walk_one(image, algo, &mut path)
    }

    /// Run inference under an executable [`AbftPolicy`]: convolution and
    /// fully-connected layers whose mode is not [`AbftMode::Off`] execute
    /// through the protected `wgft-abft` engines (checksummed GEMMs,
    /// transform guards, range restriction), still issuing every primitive
    /// operation through `arith` so injected faults strike the protected
    /// datapath exactly as they strike the unprotected one.
    ///
    /// `calibration` supplies the per-layer value ranges that range
    /// restriction clips against (obtain one from
    /// [`QuantizedNetwork::calibrate_abft`]); without it, clipping modes run
    /// their checks but never clip. Detection/correction/clip events and the
    /// exact protection overhead accumulate into `events`.
    ///
    /// With an all-[`AbftMode::Off`] policy the layers run the stock
    /// instrumented kernels and perform exactly the operation counts of
    /// [`QuantizedNetwork::forward`] (the fully-connected layer issues its
    /// multiplies with the operand order swapped, so under fault injection
    /// the two unprotected paths are statistically — not bit — identical).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_abft<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
        policy: &AbftPolicy,
        calibration: Option<&AbftCalibration>,
        scratch: &mut AbftScratch,
        events: &mut AbftEvents,
    ) -> Result<Vec<f32>, NnError> {
        let mut path = InstrumentedAbft {
            arith,
            policy,
            calibration,
            scratch,
            events,
            record: None,
            acc: Vec::new(),
        };
        self.walk_one(image, algo, &mut path)
    }

    /// [`QuantizedNetwork::forward_abft`] returning the predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    #[allow(clippy::too_many_arguments)]
    pub fn classify_abft<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
        policy: &AbftPolicy,
        calibration: Option<&AbftCalibration>,
        scratch: &mut AbftScratch,
        events: &mut AbftEvents,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward_abft(
            image,
            arith,
            algo,
            policy,
            calibration,
            scratch,
            events,
        )?))
    }

    /// [`QuantizedNetwork::forward_abft`] at a zero fault rate, on the fast
    /// integer engines: logits and [`AbftEvents`] bit-identical to
    /// `forward_abft` over a zero-rate [`wgft_faultsim::FaultyArithmetic`],
    /// every `overhead` count included.
    ///
    /// No check of `policy` is skipped. Each runs on the values the fast
    /// engines computed: the transform guards of every winograd input and
    /// output tile, the row and column checksums of every winograd-coordinate,
    /// im2col and fully-connected product, in blocked form; range
    /// restriction clips `V` and `M` inside the winograd block loop and the
    /// output accumulators after it (see `wgft_abft`'s fast checks).
    /// Overhead is charged by the instrumented executors' formulas. If any
    /// check fails, the fast result is discarded and the image reruns on
    /// the instrumented `forward_abft`, whose events are the ones reported.
    ///
    /// `fast` supplies the prepared engines, `scratch` the checks' buffers
    /// (and the fallback's).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_abft_fast(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        policy: &AbftPolicy,
        calibration: Option<&AbftCalibration>,
        fast: &mut FastInference,
        scratch: &mut AbftScratch,
        events: &mut AbftEvents,
    ) -> Result<Vec<f32>, NnError> {
        self.forward_abft_fast_internal(
            image,
            algo,
            policy,
            calibration,
            fast,
            scratch,
            events,
            None,
        )
    }

    /// [`QuantizedNetwork::forward_abft_fast`] returning the predicted
    /// class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    #[allow(clippy::too_many_arguments)]
    pub fn classify_abft_fast(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        policy: &AbftPolicy,
        calibration: Option<&AbftCalibration>,
        fast: &mut FastInference,
        scratch: &mut AbftScratch,
        events: &mut AbftEvents,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward_abft_fast(
            image,
            algo,
            policy,
            calibration,
            fast,
            scratch,
            events,
        )?))
    }

    /// [`QuantizedNetwork::forward_abft_fast`] with an accumulator hook
    /// between each compute layer's kernel and its checks (tests corrupt
    /// the fast engines through it).
    #[allow(clippy::too_many_arguments)]
    fn forward_abft_fast_internal(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        policy: &AbftPolicy,
        calibration: Option<&AbftCalibration>,
        fast: &mut FastInference,
        scratch: &mut AbftScratch,
        events: &mut AbftEvents,
        corrupt: Option<&mut AccumulatorHook<'_>>,
    ) -> Result<Vec<f32>, NnError> {
        let pass = FastAbft {
            policy,
            calibration,
            scratch: &mut *scratch,
            events: AbftEvents::new(),
            held: true,
        };
        let mut path = Fast::new(fast, Some(FastRider::Abft(pass)));
        path.corrupt = corrupt;
        let logits = self.walk_one(image, algo, &mut path)?;
        let Some(FastRider::Abft(pass)) = path.rider else {
            unreachable!("the protected pass keeps its rider");
        };
        if pass.held {
            *events += pass.events;
            return Ok(logits);
        }
        fast.abft_fallbacks += 1;
        self.forward_abft(
            image,
            &mut ExactArithmetic::new(),
            algo,
            policy,
            calibration,
            scratch,
            events,
        )
    }

    /// Record the fault-free per-layer value ranges (winograd-domain inputs,
    /// GEMM products, output accumulators) over a set of calibration images
    /// — the bounds range restriction clips against.
    ///
    /// Calibration is inherently fault-free, so it runs on the fast
    /// uninstrumented path ([`QuantizedNetwork::forward_fast`]) with a range
    /// recorder attached; the resulting [`AbftCalibration`] is identical to
    /// the instrumented reference pass
    /// ([`QuantizedNetwork::calibrate_abft_instrumented`]) because both
    /// observe the same exact integer values — tested.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn calibrate_abft(
        &self,
        images: &[Tensor],
        algo: ConvAlgorithm,
    ) -> Result<AbftCalibration, NnError> {
        let mut calibration = AbftCalibration::new(self.compute_layers);
        let mut fast = self.prepare_fast()?;
        for image in images {
            let mut path = Fast::new(&mut fast, Some(FastRider::Record(&mut calibration)));
            self.walk_one(image, algo, &mut path)?;
        }
        Ok(calibration)
    }

    /// The instrumented reference implementation of
    /// [`QuantizedNetwork::calibrate_abft`]: a fault-free pass through the
    /// protected executors with their range recorders attached. Kept (and
    /// tested) as the ground truth the fast calibration must reproduce
    /// exactly.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn calibrate_abft_instrumented(
        &self,
        images: &[Tensor],
        algo: ConvAlgorithm,
    ) -> Result<AbftCalibration, NnError> {
        let mut calibration = AbftCalibration::new(self.compute_layers);
        let mut scratch = AbftScratch::new();
        for image in images {
            let mut path = InstrumentedAbft {
                arith: &mut ExactArithmetic::new(),
                policy: &AbftPolicy::off(),
                calibration: None,
                scratch: &mut scratch,
                events: &mut AbftEvents::new(),
                record: Some(&mut calibration),
                acc: Vec::new(),
            };
            self.walk_one(image, algo, &mut path)?;
        }
        Ok(calibration)
    }

    /// The one node loop of every datapath. It quantizes `images` into one
    /// image-major slab, runs the graph over it and dequantizes each
    /// image's logits; `path` only fills each compute layer's wide
    /// accumulators and sees its requantized output. Input gathers, length
    /// checks, requantization, activation, pooling and joins are this
    /// loop's alone. Riders of the fast datapath ride single-image slabs
    /// only.
    fn walk<T: AsRef<Tensor>>(
        &self,
        images: &[T],
        algo: ConvAlgorithm,
        path: &mut impl Datapath,
    ) -> Result<Vec<Vec<f32>>, NnError> {
        let n = images.len();
        let Some(first) = images.first() else {
            return Ok(Vec::new());
        };
        let image_len = first.as_ref().data().len();
        let mut image_q = Vec::new();
        for image in images {
            let data = image.as_ref().data();
            if data.len() != image_len {
                return Err(NnError::WrongInputCount {
                    layer: "batched image",
                    expected: image_len,
                    actual: data.len(),
                });
            }
            append(&mut image_q, self.input_format.quantize_slice(data));
        }
        // Per node: the slab's outputs, image-major and contiguous (image
        // `i` occupies `[i·len, (i+1)·len)`), so a downstream node's whole
        // input slab is its producer's buffer.
        let mut outputs: Vec<(Vec<i32>, QFormat, usize)> = Vec::with_capacity(self.nodes.len());
        for (node_idx, node) in self.nodes.iter().enumerate() {
            let slab = |r: &InputRef| -> (&[i32], QFormat, usize) {
                match r {
                    InputRef::Image => (&image_q, self.input_format, image_len),
                    InputRef::Node(nd) => {
                        let (data, fmt, len) = &outputs[*nd];
                        (data, *fmt, *len)
                    }
                }
            };
            let (mut raw, len) = match &node.op {
                QOp::Conv {
                    shape,
                    weights,
                    weight_frac,
                    winograd,
                    winograd_frac,
                    bias,
                    layer_id,
                } => {
                    let (input, in_format, in_len) = slab(&node.inputs[0]);
                    if in_len != shape.input_len() {
                        return Err(wgft_winograd::WinogradError::BufferSizeMismatch {
                            what: "input",
                            expected: shape.input_len(),
                            actual: in_len,
                        }
                        .into());
                    }
                    let winograd = Self::winograd_weights(algo, shape, winograd);
                    let acc_frac =
                        in_format.frac_bits() + winograd.map_or(weight_frac, |_| winograd_frac);
                    let acc = path.conv(node_idx, *layer_id, shape, weights, winograd, input, n)?;
                    let out_len = shape.output_len();
                    let mut raw = Vec::with_capacity(acc.len());
                    for image in 0..n {
                        requantize_with_bias(
                            &acc[image * out_len..(image + 1) * out_len],
                            acc_frac,
                            bias,
                            shape.geometry.out_pixels(),
                            node.out_format,
                            &mut raw,
                        );
                    }
                    (raw, out_len)
                }
                QOp::Linear {
                    in_features,
                    out_features,
                    weights,
                    weight_frac,
                    bias,
                    layer_id,
                } => {
                    let (input, in_format, in_len) = slab(&node.inputs[0]);
                    if in_len != *in_features {
                        return Err(NnError::WrongInputCount {
                            layer: "quantized linear",
                            expected: *in_features,
                            actual: in_len,
                        });
                    }
                    let acc_frac = in_format.frac_bits() + weight_frac;
                    let acc =
                        path.linear(*layer_id, weights, *in_features, *out_features, input, n);
                    let raw = acc
                        .iter()
                        .zip(bias.iter().cycle())
                        .map(|(&a, &b)| requantize_linear_acc(a, b, acc_frac, node.out_format))
                        .collect();
                    (raw, *out_features)
                }
                _ => {
                    let (mut raw, mut format, mut len) = (Vec::new(), node.out_format, 0);
                    for image in 0..n {
                        let gather = |r: &InputRef| -> (&[i32], QFormat) {
                            let (data, fmt, len) = slab(r);
                            (&data[image * len..(image + 1) * len], fmt)
                        };
                        let (data, fmt) = node
                            .forward_simple(gather)
                            .expect("non-compute ops handled by forward_simple");
                        (format, len) = (fmt, data.len());
                        append(&mut raw, data);
                    }
                    outputs.push((raw, format, len));
                    continue;
                }
            };
            path.requantized(&node.op, &mut raw);
            outputs.push((raw, node.out_format, len));
        }
        let (raw, format, len) = outputs.last().ok_or(NnError::EmptyNetwork)?;
        Ok((0..n)
            .map(|image| {
                raw[image * len..(image + 1) * len]
                    .iter()
                    .map(|&v| format.dequantize(v))
                    .collect()
            })
            .collect())
    }

    /// [`QuantizedNetwork::walk`] over one image.
    fn walk_one(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        path: &mut impl Datapath,
    ) -> Result<Vec<f32>, NnError> {
        Ok(self
            .walk(std::slice::from_ref(image), algo, path)?
            .swap_remove(0))
    }
}

/// What one datapath supplies to the node loop ([`QuantizedNetwork::walk`]):
/// how a compute layer fills its wide accumulators, and what happens to its
/// requantized output.
trait Datapath {
    /// Fill the accumulators of convolution `layer` (graph node `node`) for
    /// the `n` images of the image-major `input` slab. `winograd` holds the
    /// layer's winograd weights when it runs the winograd kernel.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        node: usize,
        layer: usize,
        shape: &ConvShape,
        weights: &[i32],
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        n: usize,
    ) -> Result<&mut [i64], NnError>;

    /// Fill the accumulators of fully-connected `layer` (`out_features` rows
    /// of `in_features` weights) for the `n` images of `input`.
    fn linear(
        &mut self,
        layer: usize,
        weights: &[i32],
        in_features: usize,
        out_features: usize,
        input: &[i32],
        n: usize,
    ) -> &mut [i64];

    /// See compute op `op`'s requantized output before the next layer
    /// reads it.
    fn requantized(&mut self, _op: &QOp, _raw: &mut [i32]) {}
}

/// The instrumented datapath, the oracle: every operation through an
/// [`Arithmetic`], and an optional neuron-level injector corrupting each
/// compute layer's requantized output.
struct Instrumented<'a, A> {
    arith: &'a mut A,
    /// One scratch arena shared by every winograd layer of the pass (and,
    /// through [`QuantizedNetwork::classify_with_scratch`], across passes),
    /// so nothing inside the kernels' per-tile loops allocates.
    scratch: &'a mut WinogradScratch,
    neuron: Option<&'a mut NeuronLevelInjector>,
    acc: Vec<i64>,
}

impl<'a, A: Arithmetic> Instrumented<'a, A> {
    fn new(
        arith: &'a mut A,
        scratch: &'a mut WinogradScratch,
        neuron: Option<&'a mut NeuronLevelInjector>,
    ) -> Self {
        Self {
            arith,
            scratch,
            neuron,
            acc: Vec::new(),
        }
    }
}

impl<A: Arithmetic> Datapath for Instrumented<'_, A> {
    fn conv(
        &mut self,
        _node: usize,
        layer: usize,
        shape: &ConvShape,
        weights: &[i32],
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        _n: usize,
    ) -> Result<&mut [i64], NnError> {
        let arith = &mut *self.arith;
        self.acc = match winograd {
            Some(w) => {
                winograd_conv_quantized_with_scratch(arith, layer, input, w, shape, self.scratch)?
            }
            None => direct_conv_quantized(arith, layer, input, weights, shape)?,
        };
        Ok(&mut self.acc)
    }

    fn linear(
        &mut self,
        layer: usize,
        weights: &[i32],
        in_features: usize,
        out_features: usize,
        input: &[i32],
        _n: usize,
    ) -> &mut [i64] {
        self.arith.begin_layer(layer);
        self.acc.clear();
        for o in 0..out_features {
            let row = &weights[o * in_features..(o + 1) * in_features];
            let mut acc = 0i64;
            for (&w, &x) in row.iter().zip(input.iter()) {
                let product = self.arith.mul(i64::from(x), i64::from(w));
                acc = self.arith.add(acc, product);
            }
            self.acc.push(acc);
        }
        &mut self.acc
    }

    fn requantized(&mut self, op: &QOp, raw: &mut [i32]) {
        if let Some(injector) = self.neuron.as_deref_mut() {
            injector.corrupt_layer(raw, op.neuron_ops(raw.len()));
        }
    }
}

/// The instrumented ABFT datapath: every operation through an
/// [`Arithmetic`], compute layers through the protected `wgft-abft`
/// executors under `policy`, with an optional range recorder.
struct InstrumentedAbft<'a, A> {
    arith: &'a mut A,
    policy: &'a AbftPolicy,
    calibration: Option<&'a AbftCalibration>,
    scratch: &'a mut AbftScratch,
    events: &'a mut AbftEvents,
    record: Option<&'a mut AbftCalibration>,
    acc: Vec<i64>,
}

impl<A: Arithmetic> Datapath for InstrumentedAbft<'_, A> {
    fn conv(
        &mut self,
        _node: usize,
        layer: usize,
        shape: &ConvShape,
        weights: &[i32],
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        _n: usize,
    ) -> Result<&mut [i64], NnError> {
        let run = AbftRun::for_layer(self.policy, self.calibration, layer);
        let rec = self.record.as_deref_mut().map(|c| c.layer_mut(layer));
        let engine = run.mode != AbftMode::Off || rec.is_some();
        let (arith, scratch, events) = (&mut *self.arith, &mut *self.scratch, &mut *self.events);
        self.acc = match winograd {
            Some(w) if engine => {
                abft_winograd_conv(arith, layer, input, w, shape, scratch, run, rec, events)?
            }
            Some(w) => winograd_conv_quantized_with_scratch(
                arith,
                layer,
                input,
                w,
                shape,
                &mut scratch.wino,
            )?,
            None if engine => abft_direct_conv(
                arith, layer, input, weights, shape, scratch, run, rec, events,
            )?,
            None => direct_conv_quantized(arith, layer, input, weights, shape)?,
        };
        Ok(&mut self.acc)
    }

    fn linear(
        &mut self,
        layer: usize,
        weights: &[i32],
        in_features: usize,
        out_features: usize,
        input: &[i32],
        _n: usize,
    ) -> &mut [i64] {
        self.acc = abft_linear(
            self.arith,
            layer,
            input,
            weights,
            in_features,
            out_features,
            self.scratch,
            AbftRun::for_layer(self.policy, self.calibration, layer),
            self.record.as_deref_mut().map(|c| c.layer_mut(layer)),
            self.events,
        );
        &mut self.acc
    }
}

/// The fast datapath: the prepared integer engines, with at most one rider
/// on a single-image pass, and the test-only accumulator hook.
struct Fast<'a, 'h> {
    fast: &'a mut FastInference,
    rider: Option<FastRider<'a>>,
    corrupt: Option<&'a mut AccumulatorHook<'h>>,
}

impl<'a> Fast<'a, '_> {
    fn new(fast: &'a mut FastInference, rider: Option<FastRider<'a>>) -> Self {
        Self {
            fast,
            rider,
            corrupt: None,
        }
    }
}

impl Fast<'_, '_> {
    /// A GEMM layer, `acc = weights · b` (`(m×k)·(k×p)`) per image: `b` is
    /// the image's im2col patch matrix under direct convolution `conv`, and
    /// the image itself under a fully-connected layer. Padding taps multiply
    /// zeros instead of being skipped, so the accumulators are
    /// *bit-identical* to the instrumented kernels' over exact arithmetic
    /// (zero products contribute nothing to exact integer sums). The rider
    /// then patches the replayed strikes, or checks the product by its
    /// checksums, or records its range; the hook runs before the checks.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &mut self,
        layer: usize,
        weights: &[i32],
        conv: Option<&ConvShape>,
        input: &[i32],
        n: usize,
        (m, k, p): (usize, usize, usize),
    ) -> &mut [i64] {
        let FastInference {
            ops_standard,
            im2col: patches,
            acc,
            strikes,
            direct_replay,
            ..
        } = &mut *self.fast;
        let acc = resize_acc(acc, n * m * p);
        let in_len = conv.map_or(k, ConvShape::input_len);
        let mut b: &[i32] = &[];
        for i in 0..n {
            let image = &input[i * in_len..(i + 1) * in_len];
            b = match conv {
                Some(shape) => {
                    im2col(image, shape.in_channels, &shape.geometry, patches);
                    patches
                }
                None => image,
            };
            gemm_i32(weights, b, &mut acc[i * m * p..(i + 1) * m * p], m, k, p);
        }
        if let Some(FastRider::Replay(faults)) = &mut self.rider {
            let ops = &ops_standard[layer];
            draw_strikes(faults, layer, ops, strikes);
            match ops {
                LayerOps::Direct(map) => direct_replay.replay(map, input, weights, strikes, acc),
                _ => replay_linear(input, weights, strikes, acc),
            }
        }
        self.corrupt.iter_mut().for_each(|hook| hook(acc));
        match &mut self.rider {
            Some(FastRider::Abft(a)) => {
                let run = AbftRun::for_layer(a.policy, a.calibration, layer);
                let held = !run.mode.checks()
                    || fast_gemm_ok(weights, b, acc, m, k, p, a.scratch, &mut a.events);
                clip_accumulators(acc, &run, &mut a.events);
                a.held &= held;
            }
            Some(FastRider::Record(calibration)) => {
                let ranges = calibration.layer_mut(layer);
                ranges.acc_max = ranges.acc_max.max(observe_max(acc));
            }
            _ => {}
        }
        acc
    }
}

impl Datapath for Fast<'_, '_> {
    fn conv(
        &mut self,
        node: usize,
        layer: usize,
        shape: &ConvShape,
        weights: &[i32],
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        n: usize,
    ) -> Result<&mut [i64], NnError> {
        if winograd.is_none() {
            let g = &shape.geometry;
            let gemm = (
                shape.out_channels,
                shape.in_channels * g.k_h * g.k_w,
                g.out_pixels(),
            );
            return Ok(self.gemm(layer, weights, Some(shape), input, n, gemm));
        }
        let FastInference {
            wino,
            ops_winograd,
            acc,
            strikes,
            ..
        } = &mut *self.fast;
        let plan = wino[node]
            .as_mut()
            .expect("prepare_fast plans every winograd-capable node");
        let acc = resize_acc(acc, n * shape.output_len());
        let mut corrupt = |acc: &mut [i64]| self.corrupt.iter_mut().for_each(|hook| hook(acc));
        match &mut self.rider {
            // Riders ride single images; a batch coalesces into the engine's
            // GEMM free dimension.
            _ if n > 1 => plan.execute_batch_into(input, n, acc)?,
            Some(FastRider::Abft(a)) => {
                let run = AbftRun::for_layer(a.policy, a.calibration, layer);
                let mut checks = (run.mode != AbftMode::Off)
                    .then(|| WinogradChecks::new(*plan.plan(), input, run, a.scratch));
                match checks.as_mut() {
                    Some(stage) => plan.execute_into_staged(input, acc, stage)?,
                    None => plan.execute_into(input, acc)?,
                }
                corrupt(acc);
                a.held &= checks.is_none_or(|checks| checks.finish(acc, &mut a.events));
                clip_accumulators(acc, &run, &mut a.events);
            }
            Some(FastRider::Record(calibration)) => {
                let mut record = QuantizedRangeRecord::new();
                plan.execute_into_staged(input, acc, &mut record)?;
                corrupt(acc);
                let ranges = calibration.layer_mut(layer);
                ranges.v_max = ranges.v_max.max(record.v_max);
                ranges.gemm_max = ranges.gemm_max.max(record.gemm_max);
                ranges.acc_max = ranges.acc_max.max(observe_max(acc));
            }
            Some(FastRider::Replay(faults)) => {
                draw_strikes(faults, layer, &ops_winograd[layer], strikes);
                let LayerOps::Winograd(map) = &ops_winograd[layer] else {
                    unreachable!("winograd layers map to winograd operation sequences")
                };
                plan.execute_replay_into(input, map, strikes, acc)?;
                corrupt(acc);
            }
            None | Some(FastRider::Neuron(_)) => {
                plan.execute_into(input, acc)?;
                corrupt(acc);
            }
        }
        Ok(acc)
    }

    fn linear(
        &mut self,
        layer: usize,
        weights: &[i32],
        in_features: usize,
        out_features: usize,
        input: &[i32],
        n: usize,
    ) -> &mut [i64] {
        self.gemm(
            layer,
            weights,
            None,
            input,
            n,
            (out_features, in_features, 1),
        )
    }

    fn requantized(&mut self, op: &QOp, raw: &mut [i32]) {
        if let Some(FastRider::Neuron(injector)) = &mut self.rider {
            injector.corrupt_layer(raw, op.neuron_ops(raw.len()));
        }
    }
}

/// Draw one compute layer's strikes into `strikes`, keeping only those that
/// corrupt their operation (a masked strike computes exactly).
fn draw_strikes(
    faults: &mut StrikeEnumerator,
    layer_id: usize,
    ops: &LayerOps,
    strikes: &mut Vec<Strike>,
) {
    strikes.clear();
    faults.layer(layer_id, ops, strikes);
    strikes.retain(Strike::injects);
}

/// One fully-connected output's accumulation chain: `mul(x, w)` over the
/// input and the output's weight row.
struct LinearChain<'a> {
    input: &'a [i32],
    row: &'a [i32],
}

// wgft-audit: consensus-critical -- exact chain sums of replayed campaign cells
impl MacChain for LinearChain<'_> {
    fn pairs(&self) -> usize {
        self.input.len()
    }

    fn operands(&self, pair: usize) -> (i64, i64) {
        (i64::from(self.input[pair]), i64::from(self.row[pair]))
    }

    fn dot(&self, pairs: Range<usize>) -> i64 {
        dot_i32(&self.input[pairs.clone()], &self.row[pairs])
    }
}

/// Apply a fully-connected layer's strikes to its exact accumulators: each
/// struck output's chain is replayed from its exact accumulator
/// ([`MacChainReplay`]).
// wgft-audit: consensus-critical -- patches the accumulators of replayed fully-connected layers
fn replay_linear(input: &[i32], weights: &[i32], strikes: &[Strike], acc: &mut [i64]) {
    let in_features = input.len();
    let row_ops = 2 * in_features as u64;
    let mut rest = strikes;
    while let Some(first) = rest.first() {
        let o = (first.op / row_ops) as usize;
        let (row_strikes, tail) = split_strikes(rest, (o as u64 + 1) * row_ops);
        rest = tail;
        let chain = LinearChain {
            input,
            row: &weights[o * in_features..(o + 1) * in_features],
        };
        acc[o] = MacChainReplay::new(o as u64 * row_ops, 2).replay(&chain, row_strikes, acc[o]);
    }
}

/// Append one image's values to an image-major slab (moving them in when
/// they are the first, so a single-image slab copies nothing).
fn append(slab: &mut Vec<i32>, image: Vec<i32>) {
    if slab.is_empty() {
        *slab = image;
    } else {
        slab.extend(image);
    }
}

/// Grow-and-clear the shared accumulator scratch for one layer.
fn resize_acc(acc: &mut Vec<i64>, len: usize) -> &mut [i64] {
    acc.clear();
    acc.resize(len, 0);
    acc
}

/// Requantize one fully-connected accumulator, adding its bias in the
/// accumulator domain — the single copy of the bias-rounding expression all
/// three linear paths (instrumented, protected, fast) share, so the tested
/// bit-identity between them cannot drift.
fn requantize_linear_acc(acc: i64, bias: f32, acc_frac: u32, out_format: QFormat) -> i32 {
    let bias_acc = (f64::from(bias) * (1u64 << acc_frac) as f64).round() as i64;
    // Saturating for the same reason as `requantize_with_bias`: injected
    // faults can push `acc` to the i64 extremes.
    out_format.requantize_accumulator(acc.saturating_add(bias_acc), acc_frac)
}

/// Requantize one image's conv accumulators onto `out`, adding the
/// per-channel bias in the accumulator domain.
fn requantize_with_bias(
    acc: &[i64],
    acc_frac: u32,
    bias: &[f32],
    pixels_per_channel: usize,
    out_format: QFormat,
    out: &mut Vec<i32>,
) {
    let scale = (1u64 << acc_frac) as f64;
    for (oc, channel) in acc.chunks(pixels_per_channel.max(1)).enumerate() {
        let bias_acc = (f64::from(bias.get(oc).copied().unwrap_or(0.0)) * scale).round() as i64;
        // Saturating: fault injection can leave an accumulator near the
        // i64 extremes, and the bias add must not overflow (clean
        // accumulators sit far below the saturation region, so this never
        // changes exact results).
        out.extend(
            channel
                .iter()
                .map(|&a| out_format.requantize_accumulator(a.saturating_add(bias_acc), acc_frac)),
        );
    }
}

/// 2x2/stride-2 max pooling on raw quantized words.
fn maxpool_raw(input: &[i32], channels: usize, in_h: usize, in_w: usize) -> Vec<i32> {
    let (oh, ow) = (in_h / 2, in_w / 2);
    let mut out = vec![0i32; channels * oh * ow];
    for c in 0..channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i32::MIN;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = (c * in_h + oy * 2 + dy) * in_w + ox * 2 + dx;
                        best = best.max(input[idx]);
                    }
                }
                out[(c * oh + oy) * ow + ox] = best;
            }
        }
    }
    out
}

/// Global average pooling on raw quantized words (rounded mean).
fn gap_raw(input: &[i32], channels: usize, in_h: usize, in_w: usize) -> Vec<i32> {
    let area = (in_h * in_w) as i64;
    let mut out = vec![0i32; channels];
    for (c, out_v) in out.iter_mut().enumerate() {
        let base = c * in_h * in_w;
        let sum: i64 = input[base..base + in_h * in_w]
            .iter()
            .map(|&v| i64::from(v))
            .sum();
        *out_v = (sum + area / 2).div_euclid(area.max(1)) as i32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use crate::{TrainConfig, Trainer};
    use wgft_data::{Dataset, SyntheticSpec};
    use wgft_faultsim::{BitErrorRate, FaultConfig, FaultyArithmetic};

    fn trained_tiny() -> (crate::Network, Dataset, SyntheticSpec) {
        let spec = SyntheticSpec::tiny();
        let data = Dataset::synthetic(&spec, 16, 3);
        let mut net = ModelKind::VggSmall.build(&spec, 5);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 6,
            ..TrainConfig::fast()
        });
        trainer.fit(&mut net, &data).unwrap();
        (net, data, spec)
    }

    #[test]
    fn quantized_network_matches_float_predictions_mostly() {
        let (mut net, data, spec) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        assert_eq!(qnet.width(), BitWidth::W16);
        assert_eq!(qnet.num_classes(), spec.num_classes);
        assert!(qnet.compute_layer_count() >= 6);
        assert_eq!(qnet.name(), "vgg_small");

        let mut agree = 0usize;
        let eval: Vec<_> = data.samples().iter().take(16).collect();
        for sample in &eval {
            let float_pred = argmax(net.forward(&sample.image).unwrap().data());
            let mut arith = ExactArithmetic::new();
            let q_pred = qnet
                .classify(&sample.image, &mut arith, ConvAlgorithm::Standard)
                .unwrap();
            if float_pred == q_pred {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= eval.len() * 8,
            "int16 quantization should agree with float on most samples ({agree}/{})",
            eval.len()
        );
    }

    #[test]
    fn winograd_and_standard_agree_without_faults() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let mut agree = 0usize;
        let eval: Vec<_> = data.samples().iter().take(16).collect();
        for sample in &eval {
            let mut a1 = ExactArithmetic::new();
            let mut a2 = ExactArithmetic::new();
            let std_pred = qnet
                .classify(&sample.image, &mut a1, ConvAlgorithm::Standard)
                .unwrap();
            let wg_pred = qnet
                .classify(&sample.image, &mut a2, ConvAlgorithm::winograd_default())
                .unwrap();
            if std_pred == wg_pred {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= eval.len() * 8,
            "winograd should agree with standard ({agree})"
        );
    }

    #[test]
    fn winograd_execution_issues_fewer_multiplications() {
        // Operation counts do not depend on training, so use an untrained
        // 16x16 model where boundary effects do not mask the winograd gain.
        let spec = SyntheticSpec::small();
        let data = Dataset::synthetic(&spec, 2, 3);
        let mut net = ModelKind::VggSmall.build(&spec, 5);
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(4)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let image = &data.samples()[0].image;
        let mut std_arith = ExactArithmetic::new();
        qnet.forward(image, &mut std_arith, ConvAlgorithm::Standard)
            .unwrap();
        let mut wg_arith = ExactArithmetic::new();
        qnet.forward(image, &mut wg_arith, ConvAlgorithm::winograd_default())
            .unwrap();
        let std_mul = std_arith.counters().total().mul;
        let wg_mul = wg_arith.counters().total().mul;
        assert!(
            (wg_mul as f64) < 0.65 * std_mul as f64,
            "winograd inference should use far fewer muls ({wg_mul} vs {std_mul})"
        );
        // Analytic totals should be in the same ballpark as the measurements.
        let analytic_std = qnet.total_op_count(ConvAlgorithm::Standard);
        assert!((analytic_std.mul as f64) >= std_mul as f64 * 0.9);
    }

    #[test]
    fn layer_op_counts_cover_all_compute_layers() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(2)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let counts = qnet.layer_op_counts(ConvAlgorithm::Standard);
        assert_eq!(counts.len(), qnet.compute_layer_count());
        assert!(counts.iter().all(|c| c.total() > 0));
    }

    #[test]
    fn high_fault_rate_destroys_accuracy() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(4)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let eval: Vec<_> = data.samples().iter().take(12).collect();
        let mut clean_correct = 0usize;
        let mut faulty_correct = 0usize;
        for (i, sample) in eval.iter().enumerate() {
            let mut exact = ExactArithmetic::new();
            if qnet
                .classify(&sample.image, &mut exact, ConvAlgorithm::Standard)
                .unwrap()
                == sample.label
            {
                clean_correct += 1;
            }
            let config = FaultConfig::new(BitErrorRate::new(5e-3), BitWidth::W16);
            let mut faulty = FaultyArithmetic::new(config, i as u64);
            if qnet
                .classify(&sample.image, &mut faulty, ConvAlgorithm::Standard)
                .unwrap()
                == sample.label
            {
                faulty_correct += 1;
            }
        }
        assert!(
            faulty_correct < clean_correct,
            "a huge fault rate must hurt accuracy (clean {clean_correct}, faulty {faulty_correct})"
        );
    }

    #[test]
    fn neuron_level_injection_corrupts_predictions_at_high_rates() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(4)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let image = &data.samples()[0].image;
        let mut injector = NeuronLevelInjector::new(BitErrorRate::new(1e-3), BitWidth::W16, 9);
        let corrupted = qnet
            .forward_with_neuron_faults(image, &mut injector, ConvAlgorithm::Standard)
            .unwrap();
        let mut exact = ExactArithmetic::new();
        let clean = qnet
            .forward(image, &mut exact, ConvAlgorithm::Standard)
            .unwrap();
        assert_ne!(
            clean, corrupted,
            "heavy neuron corruption must perturb the logits"
        );
    }

    /// The tentpole guarantee at network level: the fast uninstrumented
    /// forward pass must produce **bit-identical** logits to the
    /// instrumented forward pass on exact arithmetic, for both algorithms
    /// and both storage widths, across the evaluation set.
    #[test]
    fn fast_forward_is_bit_identical_to_instrumented_forward() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        for width in [BitWidth::W8, BitWidth::W16] {
            let qnet = QuantizedNetwork::from_network(
                &mut net,
                &calibration,
                QuantizerOptions::new(width),
            )
            .unwrap();
            let mut fast = qnet.prepare_fast().unwrap();
            for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
                for sample in data.samples().iter().take(12) {
                    let mut arith = ExactArithmetic::new();
                    let reference = qnet.forward(&sample.image, &mut arith, algo).unwrap();
                    let fast_logits = qnet.forward_fast(&sample.image, algo, &mut fast).unwrap();
                    assert_eq!(
                        reference, fast_logits,
                        "{width:?} {algo:?}: fast logits diverged"
                    );
                    assert_eq!(
                        argmax(&reference),
                        qnet.classify_fast(&sample.image, algo, &mut fast).unwrap()
                    );
                }
            }
        }
    }

    /// The serving guarantee at network level: batched fast inference must
    /// be **bit-identical** to per-image fast inference for every batch
    /// size (i.e. any coalescing schedule), both algorithms, on a trained
    /// model. `forward_fast` is itself bit-identical to the instrumented
    /// exact forward (tested above), so this chains all the way down.
    #[test]
    fn batched_fast_forward_is_bit_identical_to_sequential() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(7)
            .map(|s| s.image.clone())
            .collect();
        let mut fast = qnet.prepare_fast().unwrap();
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let sequential: Vec<Vec<f32>> = images
                .iter()
                .map(|img| qnet.forward_fast(img, algo, &mut fast).unwrap())
                .collect();
            for batch in [1usize, 2, 3, 5, 7] {
                let mut batched = Vec::new();
                for chunk in images.chunks(batch) {
                    batched.extend(qnet.forward_fast_batch(chunk, algo, &mut fast).unwrap());
                }
                assert_eq!(
                    sequential, batched,
                    "{algo:?}: batch size {batch} diverged from sequential"
                );
            }
            let preds = qnet.classify_fast_batch(&images, algo, &mut fast).unwrap();
            let seq_preds: Vec<usize> = sequential.iter().map(|l| argmax(l)).collect();
            assert_eq!(preds, seq_preds);
        }
        assert!(qnet
            .forward_fast_batch::<Tensor>(&[], ConvAlgorithm::Standard, &mut fast)
            .unwrap()
            .is_empty());
    }

    /// Every entry point agrees with the instrumented exact forward on every
    /// model of the zoo — plain stacks, residual `Add` joins and `Concat`
    /// joins (DenseNetSmall, GoogLeNetSmall) — for ST, F(2x2) and F(4x4) at
    /// both widths: the fast pass, the batched fast pass, both protected
    /// passes with protection off, replay and both neuron-level passes at
    /// BER 0 all return the oracle's logit bits. An untrained model suffices
    /// (bit-identity does not depend on the weights).
    #[test]
    fn batched_fast_forward_covers_join_graphs() {
        let spec = SyntheticSpec::tiny();
        let data = Dataset::synthetic(&spec, 4, 11);
        let images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(5)
            .map(|s| s.image.clone())
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let zero = BitErrorRate::new(0.0);
        let off = AbftPolicy::off();
        for kind in ModelKind::all() {
            for variant in [WinogradVariant::F2x2, WinogradVariant::F4x4] {
                for width in [BitWidth::W8, BitWidth::W16] {
                    let mut net = kind.build(&spec, 5);
                    let options = QuantizerOptions {
                        variant,
                        ..QuantizerOptions::new(width)
                    };
                    let qnet = QuantizedNetwork::from_network(&mut net, &images, options).unwrap();
                    let mut fast = qnet.prepare_fast().unwrap();
                    let algos: &[ConvAlgorithm] = match variant {
                        WinogradVariant::F2x2 => &[
                            ConvAlgorithm::Standard,
                            ConvAlgorithm::Winograd(WinogradVariant::F2x2),
                        ],
                        _ => &[ConvAlgorithm::Winograd(variant)],
                    };
                    for &algo in algos {
                        let case = format!("{kind:?} {width:?} {algo}");
                        let reference: Vec<Vec<u32>> = images
                            .iter()
                            .map(|img| {
                                bits(
                                    &qnet
                                        .forward(img, &mut ExactArithmetic::new(), algo)
                                        .unwrap(),
                                )
                            })
                            .collect();
                        let sequential: Vec<Vec<f32>> = images
                            .iter()
                            .map(|img| qnet.forward_fast(img, algo, &mut fast).unwrap())
                            .collect();
                        let batched = qnet.forward_fast_batch(&images, algo, &mut fast).unwrap();
                        assert_eq!(sequential, batched, "{case}: batch diverged");
                        for (i, (img, want)) in images.iter().zip(&reference).enumerate() {
                            let case = format!("{case} image {i}");
                            assert_eq!(want, &bits(&sequential[i]), "{case}: forward_fast");
                            assert_eq!(want, &bits(&batched[i]), "{case}: forward_fast_batch");
                            let mut events = AbftEvents::new();
                            let protected = qnet
                                .forward_abft(
                                    img,
                                    &mut ExactArithmetic::new(),
                                    algo,
                                    &off,
                                    None,
                                    &mut AbftScratch::new(),
                                    &mut events,
                                )
                                .unwrap();
                            assert_eq!(want, &bits(&protected), "{case}: forward_abft");
                            let protected_fast = qnet
                                .forward_abft_fast(
                                    img,
                                    algo,
                                    &off,
                                    None,
                                    &mut fast,
                                    &mut AbftScratch::new(),
                                    &mut events,
                                )
                                .unwrap();
                            assert_eq!(want, &bits(&protected_fast), "{case}: forward_abft_fast");
                            let mut faults =
                                StrikeEnumerator::new(&FaultConfig::new(zero, width), i as u64);
                            let replayed = qnet
                                .forward_replay(img, algo, &mut fast, &mut faults)
                                .unwrap();
                            assert_eq!(want, &bits(&replayed), "{case}: forward_replay");
                            let mut injector = NeuronLevelInjector::new(zero, width, i as u64);
                            let neuron = qnet
                                .forward_neuron_level(img, algo, &mut fast, &mut injector)
                                .unwrap();
                            assert_eq!(want, &bits(&neuron), "{case}: forward_neuron_level");
                            let mut injector = NeuronLevelInjector::new(zero, width, i as u64);
                            let neuron = qnet
                                .forward_with_neuron_faults(img, &mut injector, algo)
                                .unwrap();
                            assert_eq!(want, &bits(&neuron), "{case}: forward_with_neuron_faults");
                        }
                    }
                    assert_eq!(fast.abft_fallbacks(), 0, "{kind:?} {width:?}");
                }
            }
        }
    }

    /// Every entry point keeps one error contract on every model: a
    /// wrong-sized image returns `Err` (never a panic), for both conv
    /// algorithms — alone, or mixed into a batch with a good image.
    #[test]
    fn fast_forward_rejects_wrong_sized_images_like_instrumented() {
        let spec = SyntheticSpec::tiny();
        let good = Dataset::synthetic(&spec, 1, 3).samples()[0].image.clone();
        let short = Tensor::zeros(wgft_tensor::Shape::nchw(1, 1, 2, 2));
        let ber = BitErrorRate::new(1e-3);
        for kind in ModelKind::all() {
            let mut net = kind.build(&spec, 5);
            let qnet = QuantizedNetwork::from_network(
                &mut net,
                std::slice::from_ref(&good),
                QuantizerOptions::new(BitWidth::W16),
            )
            .unwrap();
            let mut fast = qnet.prepare_fast().unwrap();
            for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
                let case = format!("{kind:?} {algo}");
                let mut arith = ExactArithmetic::new();
                assert!(qnet.forward(&short, &mut arith, algo).is_err(), "{case}");
                assert!(
                    qnet.forward_fast(&short, algo, &mut fast).is_err(),
                    "{case}"
                );
                for batch in [
                    vec![short.clone()],
                    vec![good.clone(), short.clone()],
                    vec![short.clone(), good.clone()],
                ] {
                    assert!(
                        qnet.forward_fast_batch(&batch, algo, &mut fast).is_err(),
                        "{case}: batch of {}",
                        batch.len()
                    );
                }
                for policy in [AbftPolicy::off(), AbftPolicy::checksum()] {
                    let mut events = AbftEvents::new();
                    let mut scratch = AbftScratch::new();
                    assert!(
                        qnet.forward_abft(
                            &short,
                            &mut ExactArithmetic::new(),
                            algo,
                            &policy,
                            None,
                            &mut scratch,
                            &mut events,
                        )
                        .is_err(),
                        "{case}: forward_abft"
                    );
                    assert!(
                        qnet.forward_abft_fast(
                            &short,
                            algo,
                            &policy,
                            None,
                            &mut fast,
                            &mut scratch,
                            &mut events,
                        )
                        .is_err(),
                        "{case}: forward_abft_fast"
                    );
                }
                let mut faults = StrikeEnumerator::new(&FaultConfig::new(ber, BitWidth::W16), 1);
                assert!(
                    qnet.forward_replay(&short, algo, &mut fast, &mut faults)
                        .is_err(),
                    "{case}: forward_replay"
                );
                let mut injector = NeuronLevelInjector::new(ber, BitWidth::W16, 1);
                assert!(
                    qnet.forward_neuron_level(&short, algo, &mut fast, &mut injector)
                        .is_err(),
                    "{case}: forward_neuron_level"
                );
                assert!(
                    qnet.forward_with_neuron_faults(&short, &mut injector, algo)
                        .is_err(),
                    "{case}: forward_with_neuron_faults"
                );
                let images = [good.clone(), short.clone()];
                assert!(qnet.calibrate_abft(&images, algo).is_err(), "{case}");
                assert!(
                    qnet.calibrate_abft_instrumented(&images, algo).is_err(),
                    "{case}"
                );
            }
        }
    }

    /// The fast ABFT calibration must reproduce the instrumented reference
    /// calibration exactly — every layer's `v_max`, `gemm_max` and
    /// `acc_max` — for both algorithms.
    #[test]
    fn fast_abft_calibration_matches_instrumented_reference() {
        let (mut net, data, _) = trained_tiny();
        let images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(6)
            .map(|s| s.image.clone())
            .collect();
        let qnet =
            QuantizedNetwork::from_network(&mut net, &images, QuantizerOptions::new(BitWidth::W16))
                .unwrap();
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let fast = qnet.calibrate_abft(&images, algo).unwrap();
            let reference = qnet.calibrate_abft_instrumented(&images, algo).unwrap();
            assert_eq!(fast, reference, "{algo:?}: calibration diverged");
            assert_eq!(fast.len(), qnet.compute_layer_count());
        }
    }

    #[test]
    fn abft_forward_matches_plain_forward_when_fault_free() {
        let (mut net, data, _) = trained_tiny();
        let calibration_images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration_images,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let calibration = qnet.calibrate_abft(&calibration_images, algo).unwrap();
            assert_eq!(calibration.len(), qnet.compute_layer_count());
            for policy in [
                wgft_abft::AbftPolicy::off(),
                wgft_abft::AbftPolicy::checksum(),
                wgft_abft::AbftPolicy::range_only(),
                wgft_abft::AbftPolicy::checksum_range(),
            ] {
                let sample = &data.samples()[0];
                let mut plain_arith = ExactArithmetic::new();
                let plain = qnet.forward(&sample.image, &mut plain_arith, algo).unwrap();
                let mut arith = ExactArithmetic::new();
                let mut scratch = wgft_abft::AbftScratch::new();
                let mut events = wgft_abft::AbftEvents::new();
                let protected = qnet
                    .forward_abft(
                        &sample.image,
                        &mut arith,
                        algo,
                        &policy,
                        Some(&calibration),
                        &mut scratch,
                        &mut events,
                    )
                    .unwrap();
                assert_eq!(plain, protected, "{algo:?}: fault-free logits must agree");
                assert_eq!(events.detected, 0, "no false detections at BER 0");
                assert_eq!(events.clipped, 0, "calibrated ranges never clip clean runs");
                if policy.is_off() {
                    assert_eq!(events.overhead.total(), 0, "off policy is free");
                } else {
                    assert!(events.overhead.total() > 0, "protection is never free");
                }
            }
        }
    }

    /// No check of the fast protected pass is skipped: corrupting one
    /// accumulator of any compute layer between its kernel and its checks
    /// (the im2col and winograd checksums, the output-transform guards,
    /// the GEMV checksum) fails a check, and the image reruns on the
    /// instrumented executors — so the answer and events equal the
    /// instrumented run's.
    #[test]
    fn a_corrupted_fast_accumulator_fails_a_check_and_falls_back() {
        let spec = SyntheticSpec::tiny();
        let images: Vec<Tensor> = Dataset::synthetic(&spec, 1, 3)
            .samples()
            .iter()
            .map(|s| s.image.clone())
            .collect();
        let image = &images[0];
        let policy = AbftPolicy::checksum_range();
        for kind in [ModelKind::VggSmall, ModelKind::ResNetSmall] {
            for variant in [WinogradVariant::F2x2, WinogradVariant::F4x4] {
                let mut net = kind.build(&spec, 7);
                let options = QuantizerOptions {
                    variant,
                    ..QuantizerOptions::new(BitWidth::W16)
                };
                let qnet = QuantizedNetwork::from_network(&mut net, &images, options).unwrap();
                for algo in [ConvAlgorithm::Standard, ConvAlgorithm::Winograd(variant)] {
                    let calibration = qnet.calibrate_abft(&images, algo).unwrap();
                    let mut want_events = AbftEvents::new();
                    let want = qnet
                        .forward_abft(
                            image,
                            &mut ExactArithmetic::new(),
                            algo,
                            &policy,
                            Some(&calibration),
                            &mut AbftScratch::new(),
                            &mut want_events,
                        )
                        .unwrap();
                    let mut fast = qnet.prepare_fast().unwrap();
                    let mut scratch = AbftScratch::new();
                    for target in 0..qnet.compute_layer_count() {
                        let mut layer = 0;
                        let mut corrupt = |acc: &mut [i64]| {
                            if layer == target {
                                acc[acc.len() / 2] += 1 << 20;
                            }
                            layer += 1;
                        };
                        let mut events = AbftEvents::new();
                        let got = qnet
                            .forward_abft_fast_internal(
                                image,
                                algo,
                                &policy,
                                Some(&calibration),
                                &mut fast,
                                &mut scratch,
                                &mut events,
                                Some(&mut corrupt),
                            )
                            .unwrap();
                        let case = format!("{kind:?} {algo} layer {target}");
                        assert_eq!(fast.abft_fallbacks(), target as u64 + 1, "{case}");
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&want), bits(&got), "{case}");
                        assert_eq!(want_events, events, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(2)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let json = serde_json::to_string(&qnet).unwrap();
        let restored: QuantizedNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(qnet, restored);
    }
}
