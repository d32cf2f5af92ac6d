//! Sequential networks over an enum of layers.

use crate::loss::{cross_entropy, softmax};
use crate::{Activation, ActivationLayer, Conv2d, Dense, Dropout, MaxPool2d, NnError};
use opad_par::Rng;
use opad_telemetry::JsonValue;
use opad_tensor::Tensor;

/// One layer of a [`Network`].
///
/// An enum (rather than a trait object) keeps the network trivially
/// cloneable and writable as JSON, which the retraining loop and campaign
/// checkpoints rely on to snapshot models between rounds.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// Pointwise nonlinearity.
    Activation(ActivationLayer),
    /// 2-D convolution (stride 1, valid padding).
    Conv2d(Conv2d),
    /// Non-overlapping 2-D max pooling.
    MaxPool2d(MaxPool2d),
    /// Inverted dropout.
    Dropout(Dropout),
}

impl Layer {
    /// Forward pass; caches activations when `training`.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's shape errors.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.forward(x, training),
            Layer::Activation(l) => Ok(l.forward(x, training)),
            Layer::Conv2d(l) => l.forward(x, training),
            Layer::MaxPool2d(l) => l.forward(x, training),
            Layer::Dropout(l) => Ok(l.forward(x, training)),
        }
    }

    /// Immutable inference pass: the same arithmetic as
    /// [`Layer::forward`] with `training = false`, but through `&self` —
    /// no caches are touched, so shared references can run the layer
    /// concurrently. Dropout is the identity, as at inference.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's shape errors.
    pub fn forward_infer(&self, x: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.forward_infer(x),
            Layer::Activation(l) => Ok(l.forward_infer(x)),
            Layer::Conv2d(l) => l.forward_infer(x),
            Layer::MaxPool2d(l) => l.forward_infer(x),
            Layer::Dropout(l) => Ok(l.forward_infer(x)),
        }
    }

    /// Backward pass; returns the gradient with respect to this layer's
    /// input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] when the layer has no
    /// cached activation.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.backward(grad_out),
            Layer::Activation(l) => l.backward(grad_out).ok_or(NnError::BackwardBeforeForward {
                layer: "Activation",
            }),
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::MaxPool2d(l) => l.backward(grad_out),
            Layer::Dropout(l) => l.backward(grad_out),
        }
    }

    /// Zeroes any accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Dense(l) => l.zero_grad(),
            Layer::Conv2d(l) => l.zero_grad(),
            _ => {}
        }
    }

    /// Parameter/gradient pairs (empty for parameterless layers).
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        match self {
            Layer::Dense(l) => l.params_and_grads(),
            Layer::Conv2d(l) => l.params_and_grads(),
            _ => Vec::new(),
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.param_count(),
            Layer::Conv2d(l) => l.param_count(),
            _ => 0,
        }
    }

    /// Drops cached activations (e.g. before serialization).
    pub fn clear_cache(&mut self) {
        match self {
            Layer::Dense(l) => l.clear_cache(),
            Layer::Activation(l) => l.clear_cache(),
            Layer::Conv2d(l) => l.clear_cache(),
            Layer::MaxPool2d(l) => l.clear_cache(),
            Layer::Dropout(l) => l.clear_cache(),
        }
    }

    /// The layer as a one-member JSON object `{"<kind>": <layer>}`.
    fn to_json(&self) -> JsonValue {
        let (kind, body) = match self {
            Layer::Dense(l) => ("Dense", l.to_json()),
            Layer::Activation(l) => ("Activation", l.to_json()),
            Layer::Conv2d(l) => ("Conv2d", l.to_json()),
            Layer::MaxPool2d(l) => ("MaxPool2d", l.to_json()),
            Layer::Dropout(l) => ("Dropout", l.to_json()),
        };
        JsonValue::obj([(kind, body)])
    }

    /// Reads [`Layer::to_json`] output.
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let [(kind, body)] = v.as_obj().unwrap_or_default() else {
            return Err("a layer must be a one-member object".into());
        };
        Ok(match kind.as_str() {
            "Dense" => Layer::Dense(Dense::from_json(body)?),
            "Activation" => Layer::Activation(ActivationLayer::from_json(body)?),
            "Conv2d" => Layer::Conv2d(Conv2d::from_json(body)?),
            "MaxPool2d" => Layer::MaxPool2d(MaxPool2d::from_json(body)?),
            "Dropout" => Layer::Dropout(Dropout::from_json(body)?),
            other => return Err(format!("unknown layer kind {other:?}")),
        })
    }
}

/// A sequential feed-forward classifier.
///
/// Inputs are `[batch, features]`; the final layer's output is interpreted
/// as unnormalised class logits.
///
/// # Examples
///
/// ```
/// use opad_nn::{Network, Activation};
/// use opad_tensor::Tensor;
///
/// let mut rng = opad_par::Rng::seed_from_u64(0);
/// let mut net = Network::mlp(&[4, 16, 3], Activation::Relu, &mut rng)?;
/// let x = Tensor::zeros(&[2, 4]);
/// let logits = net.forward(&x, false)?;
/// assert_eq!(logits.dims(), &[2, 3]);
/// # Ok::<(), opad_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from an explicit layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] for an empty stack.
    pub fn new(layers: Vec<Layer>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        Ok(Network { layers })
    }

    /// Builds a multi-layer perceptron: `dims[0] → … → dims.last()`, with
    /// `activation` between consecutive dense layers (none after the last).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when fewer than two dims are given
    /// or any dim is zero.
    pub fn mlp(dims: &[usize], activation: Activation, rng: &mut Rng) -> Result<Self, NnError> {
        if dims.len() < 2 {
            return Err(NnError::InvalidConfig {
                reason: "mlp needs at least input and output dims".into(),
            });
        }
        if dims.contains(&0) {
            return Err(NnError::InvalidConfig {
                reason: "mlp dims must be nonzero".into(),
            });
        }
        let mut layers = Vec::new();
        for w in dims.windows(2) {
            layers.push(Layer::Dense(Dense::new(w[0], w[1], rng)));
            layers.push(Layer::Activation(ActivationLayer::new(activation)));
        }
        layers.pop(); // no activation after the output layer
        Network::new(layers)
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Input feature width expected by the first parameterised layer, if
    /// any layer declares one.
    pub fn input_dim(&self) -> Option<usize> {
        self.layers.iter().find_map(|l| match l {
            Layer::Dense(d) => Some(d.in_dim()),
            Layer::Conv2d(c) => Some(c.in_dim()),
            Layer::MaxPool2d(p) => Some(p.in_dim()),
            _ => None,
        })
    }

    /// Output class count, from the last parameterised layer.
    pub fn output_dim(&self) -> Option<usize> {
        self.layers.iter().rev().find_map(|l| match l {
            Layer::Dense(d) => Some(d.out_dim()),
            Layer::Conv2d(c) => Some(c.out_dim()),
            Layer::MaxPool2d(p) => Some(p.out_dim()),
            _ => None,
        })
    }

    /// Runs the network, returning logits.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors (typically a wrong input width).
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, training)?;
        }
        Ok(h)
    }

    /// Runs the network immutably, returning logits — bit-identical to
    /// [`Network::forward`] with `training = false`, but through `&self`.
    ///
    /// This is the inference path detectors score through: scoring takes a
    /// shared reference, so a fitted detector can be queried from many
    /// threads against one network without cloning it per query.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors (typically a wrong input width).
    pub fn forward_infer(&self, x: &Tensor) -> Result<Tensor, NnError> {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_infer(&h)?;
        }
        Ok(h)
    }

    /// Runs the network immutably, recording the activation *after every
    /// layer* (the last entry is the logits). This is the feature tap the
    /// activation-space detectors (LID, DLA) are built on: layer `i` of
    /// the returned vector is exactly what [`Network::forward_infer`]
    /// would feed into layer `i + 1`.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors (typically a wrong input width).
    pub fn forward_recording(&self, x: &Tensor) -> Result<Vec<Tensor>, NnError> {
        let mut taps = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_infer(&h)?;
            taps.push(h.clone());
        }
        Ok(taps)
    }

    /// Indices of the [`Layer::Dense`] layers in the stack — the taps DLA
    /// restricts itself to.
    pub fn dense_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| matches!(l, Layer::Dense(_)).then_some(i))
            .collect()
    }

    /// Backpropagates `grad_logits` through the whole stack, accumulating
    /// parameter gradients, and returns `dL/dx`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] unless a training-mode
    /// forward ran first.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// All parameter/gradient pairs in stack order, for the optimizer.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(Layer::params_and_grads)
            .collect()
    }

    /// Drops every cached activation.
    pub fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// Softmax class probabilities for a batch.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict_proba(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        softmax(&self.forward(x, false)?)
    }

    /// Hard label predictions (row-wise argmax of the logits).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict_labels(&mut self, x: &Tensor) -> Result<Vec<usize>, NnError> {
        Ok(self.forward(x, false)?.argmax_rows()?)
    }

    /// Fraction of samples whose argmax prediction equals the label.
    ///
    /// # Errors
    ///
    /// Fails on shape/label mismatch.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> Result<f64, NnError> {
        let pred = self.predict_labels(x)?;
        if pred.len() != labels.len() {
            return Err(NnError::LabelCountMismatch {
                batch: pred.len(),
                labels: labels.len(),
            });
        }
        if labels.is_empty() {
            return Ok(0.0);
        }
        let correct = pred.iter().zip(labels).filter(|(p, y)| p == y).count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// The network (architecture and weights) as JSON,
    /// `{"layers": [...]}`. Cached activations and gradients are left
    /// out, so the artefact is minimal and deterministic; weights keep
    /// every bit.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([(
            "layers",
            JsonValue::arr(self.layers.iter().map(Layer::to_json)),
        )])
    }

    /// Restores a network from [`Network::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] on malformed input and
    /// [`NnError::EmptyNetwork`] for an empty layer list.
    pub fn from_json(v: &JsonValue) -> Result<Self, NnError> {
        let layers = v
            .field("layers")
            .and_then(|layers| layers.to_vec(Layer::from_json))
            .map_err(|e| NnError::InvalidConfig {
                reason: format!("deserialisation failed: {e}"),
            })?;
        Network::new(layers)
    }

    /// Cross-entropy loss and its gradient with respect to the *input*
    /// batch — the quantity gradient-based attacks ascend.
    ///
    /// Parameter gradients accumulated as a side effect are zeroed first so
    /// callers can mix attack queries with training steps safely.
    ///
    /// # Errors
    ///
    /// Fails on shape or label errors.
    pub fn loss_and_input_grad(
        &mut self,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f32, Tensor), NnError> {
        self.zero_grad();
        let logits = self.forward(x, true)?;
        let out = cross_entropy(&logits, labels, None)?;
        let gx = self.backward(&out.grad)?;
        self.zero_grad();
        Ok((out.loss, gx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(0)
    }

    #[test]
    fn empty_network_rejected() {
        assert!(matches!(Network::new(vec![]), Err(NnError::EmptyNetwork)));
    }

    #[test]
    fn mlp_construction() {
        let mut r = rng();
        let net = Network::mlp(&[8, 16, 4], Activation::Relu, &mut r).unwrap();
        assert_eq!(net.num_layers(), 3); // dense, relu, dense
        assert_eq!(net.input_dim(), Some(8));
        assert_eq!(net.output_dim(), Some(4));
        assert_eq!(net.param_count(), 8 * 16 + 16 + 16 * 4 + 4);
        assert!(Network::mlp(&[4], Activation::Relu, &mut r).is_err());
        assert!(Network::mlp(&[4, 0, 2], Activation::Relu, &mut r).is_err());
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng();
        let mut net = Network::mlp(&[5, 7, 3], Activation::Tanh, &mut r).unwrap();
        let y = net.forward(&Tensor::zeros(&[4, 5]), false).unwrap();
        assert_eq!(y.dims(), &[4, 3]);
        assert!(net.forward(&Tensor::zeros(&[4, 6]), false).is_err());
    }

    #[test]
    fn predict_proba_is_distribution() {
        let mut r = rng();
        let mut net = Network::mlp(&[3, 8, 4], Activation::Relu, &mut r).unwrap();
        let x = Tensor::rand_normal(&[5, 3], 0.0, 1.0, &mut r);
        let p = net.predict_proba(&x).unwrap();
        for i in 0..5 {
            assert!((p.row(i).unwrap().sum() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let mut r = rng();
        let mut net = Network::mlp(&[2, 4, 2], Activation::Relu, &mut r).unwrap();
        let x = Tensor::rand_normal(&[10, 2], 0.0, 1.0, &mut r);
        let pred = net.predict_labels(&x).unwrap();
        let acc = net.accuracy(&x, &pred).unwrap();
        assert_eq!(acc, 1.0);
        let wrong: Vec<usize> = pred.iter().map(|p| 1 - p).collect();
        assert_eq!(net.accuracy(&x, &wrong).unwrap(), 0.0);
        assert!(net.accuracy(&x, &pred[..5]).is_err());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut net = Network::mlp(&[4, 8, 3], Activation::Tanh, &mut r).unwrap();
        let x = Tensor::rand_normal(&[1, 4], 0.0, 1.0, &mut r);
        let labels = [1usize];
        let (_, gx) = net.loss_and_input_grad(&x, &labels).unwrap();
        let h = 1e-2f32;
        for j in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[j] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[j] -= h;
            let lp = {
                let logits = net.forward(&xp, false).unwrap();
                crate::loss::cross_entropy(&logits, &labels, None)
                    .unwrap()
                    .loss
            };
            let lm = {
                let logits = net.forward(&xm, false).unwrap();
                crate::loss::cross_entropy(&logits, &labels, None)
                    .unwrap()
                    .loss
            };
            let num = (lp - lm) / (2.0 * h);
            let ana = gx.as_slice()[j];
            assert!(
                (num - ana).abs() < 2e-2,
                "input {j}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn input_grad_leaves_param_grads_zeroed() {
        let mut r = rng();
        let mut net = Network::mlp(&[3, 4, 2], Activation::Relu, &mut r).unwrap();
        let x = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut r);
        net.loss_and_input_grad(&x, &[0, 1]).unwrap();
        for (_, g) in net.params_and_grads() {
            assert_eq!(g.norm_linf(), 0.0);
        }
    }

    #[test]
    fn conv_stack_end_to_end() {
        let mut r = rng();
        // 1×6×6 input → conv(2 ch, k3) → 2×4×4 → pool 2 → 2×2×2 → dense → 3
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(1, 6, 6, 2, 3, &mut r).unwrap()),
            Layer::Activation(ActivationLayer::new(Activation::Relu)),
            Layer::MaxPool2d(MaxPool2d::new(2, 4, 4, 2).unwrap()),
            Layer::Dense(Dense::new(8, 3, &mut r)),
        ]);
        let mut net = net.unwrap();
        assert_eq!(net.input_dim(), Some(36));
        assert_eq!(net.output_dim(), Some(3));
        let x = Tensor::rand_normal(&[3, 36], 0.0, 1.0, &mut r);
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[3, 3]);
        let (loss, gx) = net.loss_and_input_grad(&x, &[0, 1, 2]).unwrap();
        assert!(loss.is_finite());
        assert_eq!(gx.dims(), &[3, 36]);
    }

    #[test]
    fn dropout_in_stack_inference_deterministic() {
        let mut r = rng();
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(4, 8, &mut r)),
            Layer::Dropout(Dropout::new(0.5, 11).unwrap()),
            Layer::Dense(Dense::new(8, 2, &mut r)),
        ])
        .unwrap();
        let x = Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut r);
        let a = net.forward(&x, false).unwrap();
        let b = net.forward(&x, false).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trip_keeps_every_layer_kind_bit_exact() {
        let mut r = rng();
        let mut net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(1, 6, 6, 2, 3, &mut r).unwrap()),
            Layer::Activation(ActivationLayer::new(Activation::LeakyRelu)),
            Layer::MaxPool2d(MaxPool2d::new(2, 4, 4, 2).unwrap()),
            Layer::Dense(Dense::new(8, 5, &mut r)),
            Layer::Dropout(Dropout::new(0.25, 3).unwrap()),
            Layer::Dense(Dense::new(5, 3, &mut r)),
        ])
        .unwrap();
        let x = Tensor::rand_normal(&[3, 36], 0.0, 1.0, &mut r);
        let before = net.forward(&x, false).unwrap();
        let text = net.to_json().to_string();
        let mut restored = Network::from_json(&opad_telemetry::parse_json(&text).unwrap()).unwrap();
        assert_eq!(restored.num_layers(), net.num_layers());
        assert_eq!(restored.to_json().to_string(), text);
        let after = restored.forward(&x, false).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn json_round_trip_via_helpers() {
        let mut r = rng();
        let mut net = Network::mlp(&[3, 5, 2], Activation::Relu, &mut r).unwrap();
        // Run a training-mode forward so caches exist; to_json must drop
        // them without disturbing the live network.
        let x = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut r);
        net.forward(&x, true).unwrap();
        let json = net.to_json();
        let mut back = Network::from_json(&json).unwrap();
        let a = net.forward(&x, false).unwrap();
        let b = back.forward(&x, false).unwrap();
        assert!(a.approx_eq(&b, 1e-6));
        let parse = |text| opad_telemetry::parse_json(text).unwrap();
        assert!(Network::from_json(&parse("\"not a network\"")).is_err());
        assert!(Network::from_json(&parse("{\"layers\":[]}")).is_err());
        assert!(Network::from_json(&parse("{\"layers\":[{\"Softmax\":{}}]}")).is_err());
    }

    #[test]
    fn dropout_network_trains_on_identically_after_a_json_round_trip() {
        use crate::{Optimizer, TrainConfig, Trainer};
        let mut r = rng();
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(2, 8, &mut r)),
            Layer::Activation(ActivationLayer::new(Activation::Relu)),
            Layer::Dropout(Dropout::new(0.5, 9).unwrap()),
            Layer::Dense(Dense::new(8, 3, &mut r)),
        ])
        .unwrap();
        let x = Tensor::rand_normal(&[32, 2], 0.0, 1.0, &mut r);
        let labels: Vec<usize> = (0..32).map(|i| i % 3).collect();
        let train = |net: &mut Network, epochs: usize| {
            Trainer::new(TrainConfig::new(epochs, 8), Optimizer::sgd(0.1))
                .fit(
                    net,
                    &x,
                    &labels,
                    None,
                    &mut Rng::seed_from_u64(epochs as u64),
                )
                .unwrap();
        };
        train(&mut net, 2);
        // Saved after two epochs, restored, and both trained one more
        // epoch on the same stream: the masks, hence the weights, agree.
        let mut restored = Network::from_json(&net.to_json()).unwrap();
        train(&mut net, 1);
        train(&mut restored, 1);
        assert_eq!(restored.to_json().to_string(), net.to_json().to_string());

        // A missing, short or all-zero generator state is rejected.
        let layer = |body: &str| {
            let text = format!("{{\"layers\":[{{\"Dropout\":{body}}}]}}");
            Network::from_json(&opad_telemetry::parse_json(&text).unwrap())
        };
        assert!(layer("{\"rate\":0.5,\"rng\":[1,2,3,4]}").is_ok());
        for bad in [
            "{\"rate\":0.5}",
            "{\"rate\":0.5,\"rng\":[1,2,3]}",
            "{\"rate\":0.5,\"rng\":[0,0,0,0]}",
            "{\"rate\":0.5,\"rng\":[1,2,3,-4]}",
        ] {
            assert!(
                matches!(layer(bad), Err(NnError::InvalidConfig { .. })),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn forward_infer_is_bit_identical_to_inference_forward() {
        let mut r = rng();
        // A stack covering every layer kind, dropout included (identity
        // at inference, so the immutable path must match regardless of
        // its rate).
        let mut net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(1, 6, 6, 2, 3, &mut r).unwrap()),
            Layer::Activation(ActivationLayer::new(Activation::Tanh)),
            Layer::MaxPool2d(MaxPool2d::new(2, 4, 4, 2).unwrap()),
            Layer::Dense(Dense::new(8, 5, &mut r)),
            Layer::Dropout(Dropout::new(0.4, 3).unwrap()),
            Layer::Dense(Dense::new(5, 3, &mut r)),
        ])
        .unwrap();
        let x = Tensor::rand_normal(&[4, 36], 0.0, 1.0, &mut r);
        let mutable = net.forward(&x, false).unwrap();
        let immutable = net.forward_infer(&x).unwrap();
        let same_bits = mutable
            .as_slice()
            .iter()
            .zip(immutable.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same_bits, "forward_infer diverged from forward");
        assert!(net.forward_infer(&Tensor::zeros(&[1, 5])).is_err());
    }

    #[test]
    fn forward_recording_taps_every_layer() {
        let mut r = rng();
        let net = Network::mlp(&[4, 7, 3], Activation::Relu, &mut r).unwrap();
        let x = Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut r);
        let taps = net.forward_recording(&x).unwrap();
        assert_eq!(taps.len(), net.num_layers());
        assert_eq!(taps[0].dims(), &[2, 7]); // first dense
        assert_eq!(taps[1].dims(), &[2, 7]); // relu
        assert_eq!(taps[2].dims(), &[2, 3]); // output dense
                                             // The last tap is exactly the logits.
        let logits = net.forward_infer(&x).unwrap();
        assert_eq!(taps.last().unwrap(), &logits);
        assert!(net.forward_recording(&Tensor::zeros(&[2, 5])).is_err());
    }

    #[test]
    fn dense_layer_indices_finds_the_dense_taps() {
        let mut r = rng();
        let net = Network::mlp(&[4, 7, 3], Activation::Relu, &mut r).unwrap();
        assert_eq!(net.dense_layer_indices(), vec![0, 2]);
    }

    #[test]
    fn backward_without_forward_fails() {
        let mut r = rng();
        let mut net = Network::mlp(&[2, 3, 2], Activation::Relu, &mut r).unwrap();
        assert!(net.backward(&Tensor::zeros(&[1, 2])).is_err());
    }
}
