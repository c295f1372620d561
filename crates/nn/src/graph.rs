//! The network graph: nodes, layers and the forward/backward executor.

use crate::{Add, Concat, Conv2d, GlobalAvgPool, Linear, MaxPool2, NnError, Relu};
use serde::{Deserialize, Serialize};
use wgft_tensor::{Shape, Tensor, TensorError};

/// Where a node reads its input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputRef {
    /// The network's input image.
    Image,
    /// The output of an earlier node.
    Node(usize),
}

/// One layer of the floating-point training graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum Layer {
    /// 2-D convolution.
    Conv(Conv2d),
    /// Fully-connected layer.
    Linear(Linear),
    /// ReLU activation.
    Relu(Relu),
    /// 2x2 max pooling.
    MaxPool(MaxPool2),
    /// Global average pooling.
    GlobalAvgPool(GlobalAvgPool),
    /// Residual addition of two inputs.
    Add(Add),
    /// Channel concatenation of several inputs.
    Concat(Concat),
}

impl Layer {
    /// Short label used in diagnostics and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Layer::Conv(_) => "conv",
            Layer::Linear(_) => "linear",
            Layer::Relu(_) => "relu",
            Layer::MaxPool(_) => "maxpool",
            Layer::GlobalAvgPool(_) => "gap",
            Layer::Add(_) => "add",
            Layer::Concat(_) => "concat",
        }
    }

    /// Whether this layer carries trainable parameters executed as
    /// multiply-accumulate work (convolution or fully-connected) — these are
    /// the "layers" of the paper's layer-wise fault analysis.
    #[must_use]
    pub fn is_compute_layer(&self) -> bool {
        matches!(self, Layer::Conv(_) | Layer::Linear(_))
    }

    /// Forward of one image through this layer: the training and tracing
    /// paths, and every non-convolution layer of batched inference.
    fn forward(&mut self, inputs: &[&Tensor]) -> Result<Tensor, NnError> {
        let single = |label: &'static str| -> Result<&Tensor, NnError> {
            match inputs {
                [input] => Ok(input),
                _ => Err(NnError::WrongInputCount {
                    layer: label,
                    expected: 1,
                    actual: inputs.len(),
                }),
            }
        };
        match self {
            Layer::Conv(layer) => layer.forward(single("conv")?),
            Layer::Linear(layer) => layer.forward(single("linear")?),
            Layer::Relu(layer) => Ok(layer.forward(single("relu")?)),
            Layer::MaxPool(layer) => layer.forward(single("maxpool")?),
            Layer::GlobalAvgPool(layer) => layer.forward(single("gap")?),
            Layer::Add(layer) => layer.forward(inputs),
            Layer::Concat(layer) => layer.forward(inputs),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Vec<Tensor>, NnError> {
        match self {
            Layer::Conv(layer) => Ok(vec![layer.backward(grad_out)?]),
            Layer::Linear(layer) => Ok(vec![layer.backward(grad_out)?]),
            Layer::Relu(layer) => Ok(vec![layer.backward(grad_out)?]),
            Layer::MaxPool(layer) => Ok(vec![layer.backward(grad_out)?]),
            Layer::GlobalAvgPool(layer) => Ok(vec![layer.backward(grad_out)?]),
            Layer::Add(layer) => Ok(layer.backward(grad_out)),
            Layer::Concat(layer) => layer.backward(grad_out),
        }
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        match self {
            Layer::Conv(layer) => layer.params_and_grads(),
            Layer::Linear(layer) => layer.params_and_grads(),
            _ => Vec::new(),
        }
    }

    fn zero_grad(&mut self) {
        match self {
            Layer::Conv(layer) => layer.zero_grad(),
            Layer::Linear(layer) => layer.zero_grad(),
            _ => {}
        }
    }
}

/// Resolve one input of a batched forward pass to image `img`'s tensor.
fn resolve_batch_input<'a, T: AsRef<Tensor>>(
    images: &'a [T],
    activations: &'a [Option<Vec<Tensor>>],
    r: &InputRef,
    img: usize,
    node: usize,
) -> Result<&'a Tensor, NnError> {
    match r {
        InputRef::Image => Ok(images[img].as_ref()),
        InputRef::Node(src) => activations[*src]
            .as_ref()
            .and_then(|per_image| per_image.get(img))
            .ok_or(NnError::InvalidGraph {
                node,
                reason: format!("input node {src} produced no activation"),
            }),
    }
}

/// A node of the graph: a layer plus where it reads its inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The layer executed by this node.
    pub layer: Layer,
    /// The inputs the layer consumes, in order.
    pub inputs: Vec<InputRef>,
}

/// A feed-forward network expressed as a topologically ordered graph.
///
/// Nodes may only reference earlier nodes (or the input image), which makes
/// forward execution a single pass over the node list and backward execution a
/// single reverse pass.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Network {
    nodes: Vec<Node>,
    name: String,
}

impl Network {
    /// An empty network with a descriptive name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            nodes: Vec::new(),
            name: name.into(),
        }
    }

    /// The network's name (e.g. `"vgg_small"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a node and return its index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if the node references itself or a
    /// later node.
    pub fn push(&mut self, layer: Layer, inputs: Vec<InputRef>) -> Result<usize, NnError> {
        let idx = self.nodes.len();
        for input in &inputs {
            if let InputRef::Node(n) = input {
                if *n >= idx {
                    return Err(NnError::InvalidGraph {
                        node: idx,
                        reason: format!("input {n} does not precede the node"),
                    });
                }
            }
        }
        self.nodes.push(Node { layer, inputs });
        Ok(idx)
    }

    /// The nodes in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of convolution / fully-connected layers (the paper's "layers").
    #[must_use]
    pub fn compute_layer_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.layer.is_compute_layer())
            .count()
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&mut self) -> usize {
        self.nodes
            .iter_mut()
            .flat_map(|n| n.layer.params_and_grads())
            .map(|(p, _)| p.len())
            .sum()
    }

    /// Forward pass on a single `(1, C, H, W)` image; returns the final node's
    /// output (the logits for the model-zoo classifiers).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty graph or any layer error.
    pub fn forward(&mut self, image: &Tensor) -> Result<Tensor, NnError> {
        Ok(self
            .forward_trace(image)?
            .pop()
            .expect("trace of a non-empty network"))
    }

    /// Forward pass that returns the output of *every* node in order.
    ///
    /// Used by the quantizer to calibrate per-layer activation ranges and by
    /// diagnostic tooling.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty graph or any layer error.
    pub fn forward_trace(&mut self, image: &Tensor) -> Result<Vec<Tensor>, NnError> {
        if self.nodes.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut activations: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        for idx in 0..self.nodes.len() {
            let node = &mut self.nodes[idx];
            let input_refs: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|r| match r {
                    InputRef::Image => Ok(image),
                    InputRef::Node(n) => activations.get(*n).ok_or(NnError::InvalidGraph {
                        node: idx,
                        reason: format!("input node {n} produced no activation"),
                    }),
                })
                .collect::<Result<_, _>>()?;
            let out = node.layer.forward(&input_refs)?;
            activations.push(out);
        }
        Ok(activations)
    }

    /// Inference-only forward pass: [`Network::forward_inference_batch`] on
    /// a batch of one image, so winograd-eligible convolution layers execute
    /// through their cached [`wgft_winograd::PreparedConvF32`] plans
    /// (transforms paid once per network, not once per image).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty graph or any layer error.
    pub fn forward_inference(&mut self, image: &Tensor) -> Result<Tensor, NnError> {
        Ok(self
            .forward_inference_batch(&[image])?
            .pop()
            .expect("one image in, one logits tensor out"))
    }

    /// Inference-only forward pass over a batch of images.
    ///
    /// Convolution layers execute through their batched winograd datapath
    /// ([`Conv2d::forward_planned_batch`]) with the whole batch folded into
    /// one scatter–GEMM–gather schedule; every other layer is applied
    /// per-image. Returns one logits tensor per input image, bit-identical to
    /// calling [`Network::forward_inference`] on each image in turn.
    ///
    /// In debug builds a winograd-eligible convolution that fails to advance
    /// its batched-kernel counter (i.e. silently degrades to per-image
    /// execution) panics.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty graph or any layer
    /// error.
    pub fn forward_inference_batch<T: AsRef<Tensor>>(
        &mut self,
        images: &[T],
    ) -> Result<Vec<Tensor>, NnError> {
        if self.nodes.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let n = images.len();
        // Free each node's per-image activations once its last consumer ran.
        let mut last_use = vec![usize::MAX; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            for r in &node.inputs {
                if let InputRef::Node(src) = r {
                    last_use[*src] = idx;
                }
            }
        }
        let mut activations: Vec<Option<Vec<Tensor>>> = vec![None; self.nodes.len()];
        for idx in 0..self.nodes.len() {
            let input_ids: Vec<InputRef> = self.nodes[idx].inputs.clone();
            let out: Vec<Tensor> = match &mut self.nodes[idx].layer {
                Layer::Conv(conv) => {
                    if input_ids.len() != 1 {
                        return Err(NnError::WrongInputCount {
                            layer: "conv",
                            expected: 1,
                            actual: input_ids.len(),
                        });
                    }
                    // Stack the per-image inputs into one (N, C, H, W) batch.
                    let first = resolve_batch_input(images, &activations, &input_ids[0], 0, idx)?;
                    let &[_, c, h, w] = first.shape().dims() else {
                        return Err(NnError::Tensor(TensorError::RankMismatch {
                            expected: 4,
                            actual: first.shape().dims().len(),
                        }));
                    };
                    let mut stacked = Vec::with_capacity(n * first.len());
                    stacked.extend_from_slice(first.data());
                    for img in 1..n {
                        let t = resolve_batch_input(images, &activations, &input_ids[0], img, idx)?;
                        stacked.extend_from_slice(t.data());
                    }
                    let batched_in = Tensor::from_vec(Shape::nchw(n, c, h, w), stacked)?;
                    let kernel_runs_before = conv.batched_kernel_executions();
                    let batched_out = conv.forward_planned_batch(&batched_in)?;
                    debug_assert!(
                        !conv.conv_shape().geometry.is_unit_stride_3x3()
                            || conv.batched_kernel_executions() > kernel_runs_before,
                        "winograd-eligible conv fell back to per-image execution \
                         inside the batched inference path"
                    );
                    let odims = batched_out.shape().dims().to_vec();
                    let per_out = odims[1] * odims[2] * odims[3];
                    (0..n)
                        .map(|img| {
                            Tensor::from_vec(
                                Shape::nchw(1, odims[1], odims[2], odims[3]),
                                batched_out.data()[img * per_out..(img + 1) * per_out].to_vec(),
                            )
                            .map_err(NnError::from)
                        })
                        .collect::<Result<Vec<Tensor>, NnError>>()?
                }
                other => {
                    let mut outs = Vec::with_capacity(n);
                    for img in 0..n {
                        let refs: Vec<&Tensor> = input_ids
                            .iter()
                            .map(|r| resolve_batch_input(images, &activations, r, img, idx))
                            .collect::<Result<_, _>>()?;
                        outs.push(other.forward(&refs)?);
                    }
                    outs
                }
            };
            for r in &input_ids {
                if let InputRef::Node(src) = r {
                    if last_use[*src] == idx {
                        activations[*src] = None;
                    }
                }
            }
            activations[idx] = Some(out);
        }
        Ok(activations.pop().flatten().expect("final node executed"))
    }

    /// Backward pass from a gradient on the final node's output. Parameter
    /// gradients accumulate inside the layers; call [`Network::zero_grad`]
    /// between mini-batches.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer's backward pass fails (e.g. forward was
    /// not run first).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        if self.nodes.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[self.nodes.len() - 1] = Some(grad_output.clone());
        for idx in (0..self.nodes.len()).rev() {
            let Some(grad_out) = grads[idx].take() else {
                continue;
            };
            let input_grads = self.nodes[idx].layer.backward(&grad_out)?;
            for (input_ref, grad) in self.nodes[idx].inputs.clone().iter().zip(input_grads) {
                if let InputRef::Node(n) = input_ref {
                    grads[*n] = Some(match grads[*n].take() {
                        None => grad,
                        Some(existing) => existing.add(&grad)?,
                    });
                }
            }
        }
        Ok(())
    }

    /// All parameters and their gradients (for the optimizer).
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.nodes
            .iter_mut()
            .flat_map(|n| n.layer.params_and_grads())
            .collect()
    }

    /// Reset every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for node in &mut self.nodes {
            node.layer.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wgft_tensor::Shape;

    /// conv -> relu -> gap -> linear on a 1x4x4 input.
    fn tiny_network(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new("tiny");
        let conv = net
            .push(
                Layer::Conv(Conv2d::new(1, 3, 4, 3, 1, &mut rng)),
                vec![InputRef::Image],
            )
            .unwrap();
        let relu = net
            .push(Layer::Relu(Relu::new()), vec![InputRef::Node(conv)])
            .unwrap();
        let gap = net
            .push(
                Layer::GlobalAvgPool(GlobalAvgPool::new()),
                vec![InputRef::Node(relu)],
            )
            .unwrap();
        net.push(
            Layer::Linear(Linear::new(3, 2, &mut rng)),
            vec![InputRef::Node(gap)],
        )
        .unwrap();
        net
    }

    #[test]
    fn push_rejects_forward_references() {
        let mut net = Network::new("bad");
        let err = net.push(Layer::Relu(Relu::new()), vec![InputRef::Node(5)]);
        assert!(matches!(err, Err(NnError::InvalidGraph { .. })));
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_network(1);
        assert_eq!(net.len(), 4);
        assert!(!net.is_empty());
        assert_eq!(net.compute_layer_count(), 2);
        assert!(net.parameter_count() > 0);
        assert_eq!(net.name(), "tiny");
        let image = Tensor::full(Shape::nchw(1, 1, 4, 4), 0.3);
        let logits = net.forward(&image).unwrap();
        assert_eq!(logits.shape(), &Shape::d1(2));
    }

    #[test]
    fn empty_network_errors() {
        let mut net = Network::new("empty");
        assert!(matches!(
            net.forward(&Tensor::zeros(Shape::d1(1))),
            Err(NnError::EmptyNetwork)
        ));
        assert!(matches!(
            net.backward(&Tensor::zeros(Shape::d1(1))),
            Err(NnError::EmptyNetwork)
        ));
    }

    #[test]
    fn backward_fills_parameter_gradients() {
        let mut net = tiny_network(2);
        let image = Tensor::full(Shape::nchw(1, 1, 4, 4), 0.5);
        let logits = net.forward(&image).unwrap();
        let grad = Tensor::full(logits.shape().clone(), 1.0);
        net.backward(&grad).unwrap();
        let any_nonzero = net
            .params_and_grads()
            .iter()
            .any(|(_, g)| g.max_abs() > 0.0);
        assert!(
            any_nonzero,
            "at least one parameter gradient must be non-zero"
        );
        net.zero_grad();
        let all_zero = net
            .params_and_grads()
            .iter()
            .all(|(_, g)| g.max_abs() == 0.0);
        assert!(all_zero);
    }

    #[test]
    fn residual_and_concat_graphs_execute() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut net = Network::new("residual");
        let conv1 = net
            .push(
                Layer::Conv(Conv2d::new(1, 4, 4, 3, 1, &mut rng)),
                vec![InputRef::Image],
            )
            .unwrap();
        let conv2 = net
            .push(
                Layer::Conv(Conv2d::new(4, 4, 4, 3, 1, &mut rng)),
                vec![InputRef::Node(conv1)],
            )
            .unwrap();
        let add = net
            .push(
                Layer::Add(Add::new()),
                vec![InputRef::Node(conv1), InputRef::Node(conv2)],
            )
            .unwrap();
        let cat = net
            .push(
                Layer::Concat(Concat::new()),
                vec![InputRef::Node(add), InputRef::Node(conv1)],
            )
            .unwrap();
        let gap = net
            .push(
                Layer::GlobalAvgPool(GlobalAvgPool::new()),
                vec![InputRef::Node(cat)],
            )
            .unwrap();
        net.push(
            Layer::Linear(Linear::new(8, 3, &mut rng)),
            vec![InputRef::Node(gap)],
        )
        .unwrap();

        let image = Tensor::full(Shape::nchw(1, 1, 4, 4), 0.2);
        let logits = net.forward(&image).unwrap();
        assert_eq!(logits.len(), 3);
        net.backward(&Tensor::full(Shape::d1(3), 1.0)).unwrap();
        // conv1 feeds three consumers; its gradient accumulates from all of them.
        let grads_nonzero = net
            .params_and_grads()
            .iter()
            .filter(|(_, g)| g.max_abs() > 0.0)
            .count();
        assert!(grads_nonzero >= 4);
    }

    #[test]
    fn layer_labels() {
        assert_eq!(Layer::Relu(Relu::new()).label(), "relu");
        assert_eq!(Layer::Add(Add::new()).label(), "add");
        assert_eq!(Layer::Concat(Concat::new()).label(), "concat");
        assert_eq!(Layer::MaxPool(MaxPool2::new()).label(), "maxpool");
        assert_eq!(Layer::GlobalAvgPool(GlobalAvgPool::new()).label(), "gap");
        assert!(!Layer::Relu(Relu::new()).is_compute_layer());
    }

    #[test]
    fn forward_inference_matches_training_forward() {
        let mut net = tiny_network(4);
        let image = Tensor::full(Shape::nchw(1, 1, 4, 4), 0.3);
        let trained_path = net.forward(&image).unwrap();
        let planned_path = net.forward_inference(&image).unwrap();
        assert_eq!(trained_path.shape(), planned_path.shape());
        for (a, b) in trained_path.data().iter().zip(planned_path.data()) {
            assert!(
                (a - b).abs() < 1e-3,
                "training {a} vs planned inference {b}"
            );
        }
    }

    /// Batched inference must agree bit-for-bit with per-image inference,
    /// across plain stacks and graphs with residual/concat joins, for N=1
    /// and ragged batch sizes.
    #[test]
    fn forward_inference_batch_matches_per_image_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut residual = Network::new("residual");
        let conv1 = residual
            .push(
                Layer::Conv(Conv2d::new(1, 4, 6, 3, 1, &mut rng)),
                vec![InputRef::Image],
            )
            .unwrap();
        let conv2 = residual
            .push(
                Layer::Conv(Conv2d::new(4, 4, 6, 3, 1, &mut rng)),
                vec![InputRef::Node(conv1)],
            )
            .unwrap();
        let add = residual
            .push(
                Layer::Add(Add::new()),
                vec![InputRef::Node(conv1), InputRef::Node(conv2)],
            )
            .unwrap();
        let gap = residual
            .push(
                Layer::GlobalAvgPool(GlobalAvgPool::new()),
                vec![InputRef::Node(add)],
            )
            .unwrap();
        residual
            .push(
                Layer::Linear(Linear::new(4, 3, &mut rng)),
                vec![InputRef::Node(gap)],
            )
            .unwrap();

        for net in [&mut tiny_network(7), &mut residual] {
            for n in [1usize, 2, 5] {
                let image_size = if net.name() == "tiny" { 4 } else { 6 };
                let images: Vec<Tensor> = (0..n)
                    .map(|_| {
                        Tensor::uniform(Shape::nchw(1, 1, image_size, image_size), 1.0, &mut rng)
                    })
                    .collect();
                let batched = net.forward_inference_batch(&images).unwrap();
                assert_eq!(batched.len(), n);
                for (img, image) in images.iter().enumerate() {
                    let single = net.forward_inference(image).unwrap();
                    assert_eq!(
                        single.data(),
                        batched[img].data(),
                        "{} n{n} image {img}",
                        net.name()
                    );
                }
            }
        }
    }

    #[test]
    fn forward_inference_batch_edge_cases() {
        let mut net = tiny_network(9);
        let no_images: &[Tensor] = &[];
        assert!(net.forward_inference_batch(no_images).unwrap().is_empty());
        let mut empty = Network::new("empty");
        assert!(matches!(
            empty.forward_inference_batch(&[Tensor::zeros(Shape::nchw(1, 1, 4, 4))]),
            Err(NnError::EmptyNetwork)
        ));
    }

    #[test]
    fn network_serializes_weights() {
        let mut net = tiny_network(4);
        let image = Tensor::full(Shape::nchw(1, 1, 4, 4), 0.1);
        let logits_before = net.forward(&image).unwrap();
        let json = serde_json::to_string(&net).unwrap();
        let mut restored: Network = serde_json::from_str(&json).unwrap();
        let logits_after = restored.forward(&image).unwrap();
        for (a, b) in logits_before.data().iter().zip(logits_after.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
