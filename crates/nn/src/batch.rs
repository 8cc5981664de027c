//! Minibatch passes: the workspace and the lane kernels behind
//! [`Mlp::forward_batch`], [`Mlp::backward_batch`] and
//! [`Mlp::input_gradient_batch`].
//!
//! A batch is laid out **feature-major**: feature `f` of sample `s` sits
//! at `f * batch + s`, so the samples of one feature are contiguous and
//! the samples are the lanes. Every kernel runs in lanes across
//! independent sums, never inside one, and each lane adds its terms in
//! the order the one-sample code does, with the same operands:
//!
//! - a forward pre-activation starts from `−0.0` (where `f64::sum`
//!   starts), adds `w·x` over the fan-in in order, then adds the bias;
//! - an input gradient starts from `+0.0` and adds `δ·w` over the
//!   outputs in ascending order;
//! - a parameter gradient adds `δ·x` (and a bias gradient `δ`) in sample
//!   order into the caller's total, which reproduces the one-sample
//!   code's `0 + g₁ + g₂ + …` when the total starts zeroed. Its lanes run
//!   over the fan-in, since the sum runs over the samples.
//!
//! No `mul_add`, no reassociation: every lane is bit-for-bit the
//! one-sample result. Register blocks of 4 rows × 4 lanes (`ROWS` × `LANES`)
//! are fixed-size arrays, so the compiler keeps them in vector registers;
//! the ragged edges run the same code with one row or one lane.
//!
//! [`Mlp::forward_batch`]: crate::Mlp::forward_batch
//! [`Mlp::backward_batch`]: crate::Mlp::backward_batch
//! [`Mlp::input_gradient_batch`]: crate::Mlp::input_gradient_batch

use crate::Mlp;

/// Lanes per register block.
const LANES: usize = 4;
/// Rows per register block: output rows of a forward or a parameter
/// gradient, input columns of an input gradient.
const ROWS: usize = 4;

/// Buffers for minibatch passes through one network, owned by the caller
/// and reused across calls.
///
/// [`load`](Self::load) (or [`input_mut`](Self::input_mut)) shapes the
/// workspace for a network and a batch; [`Mlp::forward_batch`] then
/// records every layer's input and pre-activation, which the two
/// backward passes read.
///
/// # Example
///
/// ```
/// use glova_nn::{Activation, BatchWorkspace, Mlp, MlpConfig};
///
/// let mut rng = glova_stats::rng::seeded(0);
/// let net = Mlp::new(&MlpConfig::new(2, &[8], 1, Activation::Tanh), &mut rng);
/// let samples = [[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]];
/// let mut ws = BatchWorkspace::new();
/// ws.load(&net, samples.iter().map(|x| &x[..]));
/// net.forward_batch(&mut ws);
/// // One output feature, three lanes: lane s is sample s.
/// for (y, x) in ws.output().iter().zip(&samples) {
///     assert_eq!(*y, net.forward(x)[0]);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    batch: usize,
    /// Layer widths: the input, then each layer's output.
    widths: Vec<usize>,
    /// Length of the pre-activation slab.
    pre_len: usize,
    /// The input, then each layer's activations (feature-major).
    acts: Vec<f64>,
    /// Each layer's pre-activations (feature-major).
    pre: Vec<f64>,
    /// `∂L/∂` the current layer's output; after an input-only backward,
    /// `∂L/∂input`.
    grad: Vec<f64>,
    /// `∂L/∂` the layer below's output, built from `grad`.
    next: Vec<f64>,
    /// One layer input, sample-major, for the parameter gradients.
    rows: Vec<f64>,
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples in the current batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Shapes the workspace for `net` and `batch` samples and returns the
    /// input block (`input_dim × batch`, feature-major) for the caller to
    /// fill.
    pub fn input_mut(&mut self, net: &Mlp, batch: usize) -> &mut [f64] {
        self.batch = batch;
        self.widths.clear();
        self.widths.push(net.input_dim());
        self.widths.extend(net.layers().iter().map(|l| l.fan_out()));
        let total: usize = self.widths.iter().sum();
        self.acts.resize(total * batch, 0.0);
        self.pre_len = (total - self.widths[0]) * batch;
        &mut self.acts[..self.widths[0] * batch]
    }

    /// Shapes the workspace for `net` and lays out `samples` as its input.
    ///
    /// # Panics
    ///
    /// Panics if a sample's width is not `net.input_dim()`.
    pub fn load<'a, I>(&mut self, net: &Mlp, samples: I)
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        let samples = samples.into_iter();
        let batch = samples.len();
        let input = self.input_mut(net, batch);
        for (s, x) in samples.enumerate() {
            assert_eq!(x.len(), net.input_dim(), "batch input width mismatch");
            for (f, &v) in x.iter().enumerate() {
                input[f * batch + s] = v;
            }
        }
    }

    /// The network output after [`Mlp::forward_batch`]
    /// (`output_dim × batch`, feature-major).
    pub fn output(&self) -> &[f64] {
        let last = self.widths.last().map_or(0, |w| w * self.batch);
        &self.acts[self.acts.len() - last..]
    }

    /// Exchanges the recorded pre-activations with `slab`.
    ///
    /// [`Mlp::input_gradient_batch`] reads only the pre-activations, so a
    /// caller running several same-shaped networks over one batch can
    /// share one workspace: after each forward it swaps the network's
    /// pre-activations out into a slab of its own, and swaps them back in
    /// before that network's input-only backward.
    pub fn swap_pre_activations(&mut self, slab: &mut Vec<f64>) {
        std::mem::swap(&mut self.pre, slab);
    }

    fn check(&self, net: &Mlp) {
        assert!(
            self.widths.len() == net.layers().len() + 1
                && self.widths[0] == net.input_dim()
                && net.layers().iter().zip(&self.widths[1..]).all(|(l, &w)| l.fan_out() == w),
            "workspace shaped for a different network"
        );
    }
}

impl Mlp {
    /// Forward pass over the batch in `ws`, recording every layer's input
    /// and pre-activations. Lane `s` of [`BatchWorkspace::output`] is
    /// bit-for-bit [`Mlp::forward`] of sample `s`.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was shaped for a different network.
    pub fn forward_batch(&self, ws: &mut BatchWorkspace) {
        ws.check(self);
        ws.pre.resize(ws.pre_len, 0.0);
        let b = ws.batch;
        let (mut act, mut pre) = (0, 0);
        for layer in self.layers() {
            let (fan_in, fan_out) = (layer.fan_in(), layer.fan_out());
            let (n, m) = (fan_in * b, fan_out * b);
            let (below, above) = ws.acts.split_at_mut(act + n);
            let z = &mut ws.pre[pre..pre + m];
            let (w, bias) = layer.params();
            let x = &below[act..];
            tile(fan_out, b, &mut Forward { w, fan_in, bias, x, b, z });
            let act_fn = layer.activation();
            for (y, &z) in above[..m].iter_mut().zip(z.iter()) {
                *y = act_fn.apply(z);
            }
            act += n;
            pre += m;
        }
    }

    /// Backward pass over the batch of the last [`Mlp::forward_batch`]:
    /// adds each sample's parameter gradients, in sample order, into
    /// `grads`. `grad_output` is `∂L/∂output` (`output_dim × batch`,
    /// feature-major). Starting from zeroed `grads`, the result is
    /// bit-for-bit the sum of one-sample gradients `0 + g₁ + g₂ + …`.
    ///
    /// No gradient with respect to the input is formed.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was shaped for a different network or the
    /// gradient shapes do not match.
    pub fn backward_batch(
        &self,
        ws: &mut BatchWorkspace,
        grad_output: &[f64],
        grads: &mut crate::Gradients,
    ) {
        assert_eq!(grads.layers().len(), self.layers().len(), "gradient layer count mismatch");
        self.backward_lanes(ws, grad_output, Some(grads));
    }

    /// Input-only backward pass: `∂L/∂input` for every sample of the last
    /// [`Mlp::forward_batch`] (`input_dim × batch`, feature-major), with
    /// no parameter gradients. Reads only the recorded pre-activations
    /// (see [`BatchWorkspace::swap_pre_activations`]). Lane `s` is
    /// bit-for-bit the one-sample input gradient of sample `s`.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was shaped for a different network or
    /// `grad_output` has the wrong length.
    pub fn input_gradient_batch<'w>(
        &self,
        ws: &'w mut BatchWorkspace,
        grad_output: &[f64],
    ) -> &'w [f64] {
        self.backward_lanes(ws, grad_output, None);
        &ws.grad
    }

    fn backward_lanes(
        &self,
        ws: &mut BatchWorkspace,
        grad_output: &[f64],
        mut grads: Option<&mut crate::Gradients>,
    ) {
        ws.check(self);
        let b = ws.batch;
        assert_eq!(grad_output.len(), self.output_dim() * b, "batch gradient width mismatch");
        assert_eq!(ws.pre.len(), ws.pre_len, "pre-activation slab shape mismatch");
        ws.grad.clear();
        if b == 0 {
            return;
        }
        ws.grad.extend_from_slice(grad_output);
        let (mut act, mut pre) = (ws.acts.len() - grad_output.len(), ws.pre.len());
        for (l, layer) in self.layers().iter().enumerate().rev() {
            let (fan_in, fan_out) = (layer.fan_in(), layer.fan_out());
            let (n, m) = (fan_in * b, fan_out * b);
            act -= n;
            pre -= m;
            // δ = ∂L/∂z = ∂L/∂y · act'(z), in place.
            let act_fn = layer.activation();
            for (g, &z) in ws.grad.iter_mut().zip(&ws.pre[pre..pre + m]) {
                *g *= act_fn.derivative(z);
            }
            let (w, _) = layer.params();
            if let Some(grads) = grads.as_deref_mut() {
                // The layer input, sample-major: lanes over the fan-in.
                let x = &ws.acts[act..act + n];
                ws.rows.resize(n, 0.0);
                for (f, xf) in x.chunks_exact(b).enumerate() {
                    for (s, &v) in xf.iter().enumerate() {
                        ws.rows[s * fan_in + f] = v;
                    }
                }
                let g = &mut grads.layers_mut()[l];
                assert_eq!(g.weights.len(), fan_in * fan_out, "gradient shape mismatch");
                for (gb, d) in g.biases.iter_mut().zip(ws.grad.chunks_exact(b)) {
                    for &ds in d {
                        *gb += ds;
                    }
                }
                let (delta, rows) = (&ws.grad[..], &ws.rows[..]);
                let gw = &mut g.weights;
                tile(fan_out, fan_in, &mut Params { delta, rows, fan_in, b, gw });
                if l == 0 {
                    break;
                }
            }
            ws.next.clear();
            ws.next.resize(n, 0.0);
            let (delta, gx) = (&ws.grad[..], &mut ws.next[..]);
            tile(fan_in, b, &mut InputGrad { w, fan_in, delta, b, gx });
            std::mem::swap(&mut ws.grad, &mut ws.next);
        }
    }
}

/// One register block of a kernel: rows `r0..r0 + R`, lanes
/// `l0..l0 + L`.
trait Block {
    fn run<const R: usize, const L: usize>(&mut self, r0: usize, l0: usize);
}

/// Covers `rows × lanes` with [`ROWS`] × [`LANES`] blocks, finishing the
/// ragged edges one row or one lane at a time.
fn tile(rows: usize, lanes: usize, k: &mut impl Block) {
    let mut r = 0;
    while r < rows {
        let full_rows = rows - r >= ROWS;
        let mut l = 0;
        while l < lanes {
            let full_lanes = lanes - l >= LANES;
            match (full_rows, full_lanes) {
                (true, true) => k.run::<ROWS, LANES>(r, l),
                (true, false) => k.run::<ROWS, 1>(r, l),
                (false, true) => k.run::<1, LANES>(r, l),
                (false, false) => k.run::<1, 1>(r, l),
            }
            l += if full_lanes { LANES } else { 1 };
        }
        r += if full_rows { ROWS } else { 1 };
    }
}

/// `z[o][s] = (−0.0 + Σ_i w[o][i]·x[i][s]) + bias[o]`: rows are outputs,
/// lanes are samples.
struct Forward<'a> {
    w: &'a [f64],
    fan_in: usize,
    bias: &'a [f64],
    x: &'a [f64],
    b: usize,
    z: &'a mut [f64],
}

impl Block for Forward<'_> {
    fn run<const R: usize, const L: usize>(&mut self, r0: usize, l0: usize) {
        let n = self.fan_in;
        let w: [&[f64]; R] = std::array::from_fn(|r| &self.w[(r0 + r) * n..(r0 + r + 1) * n]);
        let mut acc = [[-0.0f64; L]; R];
        for (i, xi) in self.x.chunks_exact(self.b).enumerate() {
            let xs: &[f64; L] = xi[l0..l0 + L].try_into().expect("lane block");
            for (a, wr) in acc.iter_mut().zip(&w) {
                let wri = wr[i];
                for (al, &xl) in a.iter_mut().zip(xs) {
                    *al += wri * xl;
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            let bias = self.bias[r0 + r];
            let z = &mut self.z[(r0 + r) * self.b + l0..][..L];
            for (zl, &al) in z.iter_mut().zip(a) {
                *zl = al + bias;
            }
        }
    }
}

/// `gx[i][s] = +0.0 + Σ_o δ[o][s]·w[o][i]` over `o` ascending: rows are
/// inputs, lanes are samples.
struct InputGrad<'a> {
    w: &'a [f64],
    fan_in: usize,
    delta: &'a [f64],
    b: usize,
    gx: &'a mut [f64],
}

impl Block for InputGrad<'_> {
    fn run<const R: usize, const L: usize>(&mut self, r0: usize, l0: usize) {
        let mut acc = [[0.0f64; L]; R];
        for (w_row, d) in self.w.chunks_exact(self.fan_in).zip(self.delta.chunks_exact(self.b)) {
            let ws: &[f64; R] = w_row[r0..r0 + R].try_into().expect("row block");
            let ds: &[f64; L] = d[l0..l0 + L].try_into().expect("lane block");
            for (a, &wr) in acc.iter_mut().zip(ws) {
                for (al, &dl) in a.iter_mut().zip(ds) {
                    *al += dl * wr;
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            self.gx[(r0 + r) * self.b + l0..][..L].copy_from_slice(a);
        }
    }
}

/// `gw[o][i] += δ[o][s]·x[s][i]` for `s` ascending: rows are outputs,
/// lanes are inputs, the sum runs over the samples.
struct Params<'a> {
    delta: &'a [f64],
    rows: &'a [f64],
    fan_in: usize,
    b: usize,
    gw: &'a mut [f64],
}

impl Block for Params<'_> {
    fn run<const R: usize, const L: usize>(&mut self, r0: usize, l0: usize) {
        let n = self.fan_in;
        let d: [&[f64]; R] =
            std::array::from_fn(|r| &self.delta[(r0 + r) * self.b..(r0 + r + 1) * self.b]);
        let mut acc: [[f64; L]; R] = std::array::from_fn(|r| {
            self.gw[(r0 + r) * n + l0..][..L].try_into().expect("lane block")
        });
        for (s, xs) in self.rows.chunks_exact(n).enumerate() {
            let xs: &[f64; L] = xs[l0..l0 + L].try_into().expect("lane block");
            for (a, dr) in acc.iter_mut().zip(&d) {
                let ds = dr[s];
                for (al, &xl) in a.iter_mut().zip(xs) {
                    *al += ds * xl;
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            self.gw[(r0 + r) * n + l0..][..L].copy_from_slice(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Gradients, MlpConfig};
    use glova_stats::rng::seeded;
    use proptest::prelude::*;
    use rand::Rng;

    const ACTIVATIONS: [Activation; 4] =
        [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity];
    const FAN_INS: [usize; 5] = [1, 3, 6, 14, 17];
    const FAN_OUTS: [usize; 4] = [1, 2, 14, 64];
    const BATCHES: [usize; 6] = [1, 2, 3, 7, 10, 11];

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A value from `[-2, 2)`, or one of the signed zeros one time in four.
    fn value(rng: &mut impl Rng) -> f64 {
        match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        }
    }

    /// Random biases on odd seeds; even seeds keep the fresh zero biases,
    /// so an all-zero sample puts every ReLU pre-activation at exactly 0.
    fn net(config: &MlpConfig, seed: u64) -> Mlp {
        let mut rng = seeded(seed);
        let mut net = Mlp::new(config, &mut rng);
        if seed % 2 == 1 {
            for layer in net.layers_mut() {
                for b in layer.params_mut().1 {
                    *b = value(&mut rng);
                }
            }
        }
        net
    }

    /// Runs the batch passes and the one-sample oracle over `samples` and
    /// compares outputs, parameter gradients and input gradients bit for
    /// bit. The workspace first runs an unrelated batch, so stale buffers
    /// must not leak into the result.
    fn check_against_oracle(net: &Mlp, samples: &[Vec<f64>], grad_out: &[Vec<f64>]) {
        let b = samples.len();
        let mut ws = BatchWorkspace::new();
        let stale: Vec<Vec<f64>> = vec![vec![0.5; net.input_dim()]; b + 3];
        ws.load(net, stale.iter().map(Vec::as_slice));
        net.forward_batch(&mut ws);

        ws.load(net, samples.iter().map(Vec::as_slice));
        net.forward_batch(&mut ws);
        let mut expect_grads = Gradients::zeros_like(net);
        let mut expect_input = vec![0.0; net.input_dim() * b];
        for (s, (x, g)) in samples.iter().zip(grad_out).enumerate() {
            let (out, cache) = net.forward_cached(x);
            let lane: Vec<f64> = ws.output().iter().skip(s).step_by(b).copied().collect();
            assert_eq!(bits(&lane), bits(&out), "forward, sample {s}");
            let (grads, grad_in) = net.backward(&cache, g);
            expect_grads.accumulate(&grads);
            for (f, v) in grad_in.into_iter().enumerate() {
                expect_input[f * b + s] = v;
            }
        }
        let grad_flat: Vec<f64> =
            (0..net.output_dim()).flat_map(|o| grad_out.iter().map(move |g| g[o])).collect();
        let mut grads = Gradients::zeros_like(net);
        net.backward_batch(&mut ws, &grad_flat, &mut grads);
        for (l, (got, want)) in grads.layers().iter().zip(expect_grads.layers()).enumerate() {
            assert_eq!(bits(&got.weights), bits(&want.weights), "weight gradients, layer {l}");
            assert_eq!(bits(&got.biases), bits(&want.biases), "bias gradients, layer {l}");
        }
        let got_input = net.input_gradient_batch(&mut ws, &grad_flat);
        assert_eq!(bits(got_input), bits(&expect_input), "input gradients");
    }

    fn random_batch(rng: &mut impl Rng, b: usize, width: usize) -> Vec<Vec<f64>> {
        let mut samples: Vec<Vec<f64>> =
            (0..b).map(|_| (0..width).map(|_| value(rng)).collect()).collect();
        // One all-zero sample with a negative zero in it.
        samples[b / 2].fill(0.0);
        samples[b / 2][0] = -0.0;
        samples
    }

    #[test]
    fn one_layer_passes_match_the_oracle_bitwise_on_the_shape_grid() {
        let mut rng = seeded(90);
        for (k, &act) in ACTIVATIONS.iter().enumerate() {
            for &fan_in in &FAN_INS {
                for &fan_out in &FAN_OUTS {
                    for &b in &BATCHES {
                        let config =
                            MlpConfig::new(fan_in, &[], fan_out, act).with_output_activation(act);
                        let seed = (k * 1000 + fan_in * 100 + fan_out + b) as u64;
                        let samples = random_batch(&mut rng, b, fan_in);
                        let grad_out = random_batch(&mut rng, b, fan_out);
                        check_against_oracle(&net(&config, seed), &samples, &grad_out);
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_deep_passes_match_the_oracle_bitwise(
            fan_in in 0usize..5,
            hidden in 0usize..4,
            fan_out in 0usize..4,
            b in 0usize..6,
            acts in 0usize..16,
            seed in 0u64..1_000_000,
        ) {
            let config = MlpConfig::new(
                FAN_INS[fan_in],
                &[FAN_OUTS[hidden], FAN_OUTS[(hidden + 1) % 4]],
                FAN_OUTS[fan_out],
                ACTIVATIONS[acts % 4],
            )
            .with_output_activation(ACTIVATIONS[acts / 4]);
            let mut rng = seeded(seed);
            let samples = random_batch(&mut rng, BATCHES[b], FAN_INS[fan_in]);
            let grad_out = random_batch(&mut rng, BATCHES[b], FAN_OUTS[fan_out]);
            check_against_oracle(&net(&config, seed), &samples, &grad_out);
        }
    }

    #[test]
    fn swapped_slabs_drive_the_input_only_backward() {
        // Two same-shaped networks share one workspace; each keeps its own
        // pre-activation slab between its forward and its backward.
        let config = MlpConfig::new(3, &[14], 1, Activation::Relu);
        let nets = [net(&config, 1), net(&config, 3)];
        let samples = random_batch(&mut seeded(4), 7, 3);
        let grad_out = vec![0.25; 7];
        let mut ws = BatchWorkspace::new();
        ws.load(&nets[0], samples.iter().map(Vec::as_slice));
        let mut slabs = [Vec::new(), Vec::new()];
        for (n, slab) in nets.iter().zip(&mut slabs) {
            n.forward_batch(&mut ws);
            ws.swap_pre_activations(slab);
        }
        for (n, slab) in nets.iter().zip(&mut slabs) {
            ws.swap_pre_activations(slab);
            let got = n.input_gradient_batch(&mut ws, &grad_out).to_vec();
            let mut own = BatchWorkspace::new();
            own.load(n, samples.iter().map(Vec::as_slice));
            n.forward_batch(&mut own);
            assert_eq!(bits(&got), bits(n.input_gradient_batch(&mut own, &grad_out)));
            ws.swap_pre_activations(slab);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let n = net(&MlpConfig::new(2, &[4], 1, Activation::Tanh), 5);
        let mut ws = BatchWorkspace::new();
        ws.load(&n, std::iter::empty::<&[f64]>());
        n.forward_batch(&mut ws);
        assert!(ws.output().is_empty());
        let mut grads = Gradients::zeros_like(&n);
        n.backward_batch(&mut ws, &[], &mut grads);
        assert_eq!(grads, Gradients::zeros_like(&n));
        assert!(n.input_gradient_batch(&mut ws, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "workspace shaped for a different network")]
    fn workspace_of_another_shape_panics() {
        let a = net(&MlpConfig::new(2, &[4], 1, Activation::Tanh), 5);
        let b = net(&MlpConfig::new(2, &[5], 1, Activation::Tanh), 5);
        let mut ws = BatchWorkspace::new();
        ws.load(&a, [&[0.1, 0.2][..]]);
        b.forward_batch(&mut ws);
    }
}
