//! Pins for the zero-allocation training plane. Every layer, the loss and a
//! model chain must reproduce, pass by pass, the hashes recorded from the
//! allocating implementations they replaced — both on a fresh pool per call
//! and on one warm pool whose buffers are reused. The in-place optimizer
//! step and the reused minibatch gather buffers must be **bitwise**
//! indistinguishable from the historical allocating pipeline.
//!
//! The final section pins whole fixed-seed training trajectories against
//! FNV-1a fingerprints recorded from the pre-refactor (PR 1) pipeline via
//! `examples/trajectory_probe.rs` — if any kernel, blocking parameter, or
//! loop restructure changes a single bit anywhere in training, these hashes
//! move and the test fails. A table pins the schedule-invariance fixture's
//! trajectory fingerprint of every shipped algorithm the same way, and a
//! second one the robust rules and DP noise placement the first leaves out.

use fedcross::{FedCross, FedCrossConfig, SelectionStrategy, SimilarityMeasure};
use fedcross_bench::determinism::{spec_fingerprint, SweptAlgorithm};
use fedcross_data::federated::{FederatedDataset, SynthCifar10Config};
use fedcross_data::{Batch, Dataset, Heterogeneity};
use fedcross_flsim::client::local_train;
use fedcross_flsim::engine::{RoundContext, TrainJob};
use fedcross_flsim::{ClientWorkerPool, CommTracker, FederatedAlgorithm, LocalTrainConfig};
use fedcross_nn::layers::{
    BatchNorm2d, Conv2d, Dropout, Embedding, Flatten, GlobalAvgPool2d, Linear, Lstm, MaxPool2d,
    Relu, ResidualBlock, Sigmoid, Tanh,
};
use fedcross_nn::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use fedcross_nn::models::{
    cnn, fedavg_cnn, lstm_classifier, mlp, resnet20_lite, CnnConfig, LstmConfig,
};
use fedcross_nn::{Layer, Model, Sequential};
use fedcross_tensor::{init, SeededRng, Tensor, TensorPool};
use fedcross_tests::rule_and_noise_variants;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

// ---------------------------------------------------------------------------
// Per-layer pins: a fresh pool per call and one warm shared pool
// ---------------------------------------------------------------------------

/// FNV-1a hashes of one pass: the forward output, the input gradient and the
/// parameter gradients (every parameter's gradient concatenated in
/// `visit_params` order). A quantity a case does not produce is pinned as
/// [`EMPTY`], the hash of the empty slice.
type PassPin = [u64; 3];

/// FNV-1a of the empty slice.
const EMPTY: u64 = 0xcbf29ce484222325;

/// Every case and pass of the per-layer, loss and chain tests below, recorded
/// from the allocating `forward`/`backward` implementations each layer
/// carried next to its pooled form. Parameter gradients accumulate across a
/// case's passes, so each pass pins the running total.
const PINS: &[(&str, &[PassPin])] = &[
    (
        "linear 5x7->3",
        &[
            [0x634733a00cf9f5d2, 0x2b7a95e79fb3db6c, 0x20b24615aacdbe1d],
            [0x35a5de7daa56fcfb, 0x2b7a95e79fb3db6c, 0x23f526be9a852134],
            [0x81938d89e49e0242, 0x2b7a95e79fb3db6c, 0x45082f6cf89f7acd],
        ],
    ),
    (
        "linear 1x13->9",
        &[
            [0x06402dd008a46e96, 0x744d37e5350ac070, 0x7afdb3f389631a44],
            [0xa834c1d97017eca9, 0x744d37e5350ac070, 0xcaa9d42c33be9f7c],
            [0x96759de092963949, 0x744d37e5350ac070, 0x6751fea35dcecc75],
        ],
    ),
    (
        "linear 0x4->6",
        &[
            [EMPTY, EMPTY, 0xde9fa0da6fc22a85],
            [EMPTY, EMPTY, 0xde9fa0da6fc22a85],
            [EMPTY, EMPTY, 0xde9fa0da6fc22a85],
        ],
    ),
    (
        "linear 16x32->10",
        &[
            [0xe8418161aba96ae2, 0x9de6cdd550a5f5cd, 0x5c743ae5eb7e9dc9],
            [0x98c16eddf10b9674, 0x9de6cdd550a5f5cd, 0xe1fa031f7aac3c4f],
            [0xd04094b11276170a, 0x9de6cdd550a5f5cd, 0x77b87f592a31a60c],
        ],
    ),
    (
        "conv2d 2x3x9x9 ->5 k3 s1 p1",
        &[
            [0x4c47472d5d4c6478, 0x938e56213226f06a, 0xba4c14519e7ca897],
            [0xa47c6815cac8fbaf, 0x938e56213226f06a, 0x402735d9fd4929d9],
        ],
    ),
    (
        "conv2d 1x1x7x7 ->2 k3 s2 p0",
        &[
            [0xd114ea097e9349b5, 0xe8d3385d60c38194, 0x3c3493f8f5deafc9],
            [0xf89fde6a3aa5dcb3, 0xe8d3385d60c38194, 0x77dcae7f54b5563e],
        ],
    ),
    (
        "conv2d 3x2x8x8 ->4 k1 s1 p0",
        &[
            [0x8c95738e14158228, 0x64dce072eabd03a4, 0x9957f1b57ceba747],
            [0x9123e7cc50d250dc, 0x64dce072eabd03a4, 0xac975fd6a13ce302],
        ],
    ),
    (
        "relu",
        &[
            [0xc32026d0fecb7b6a, 0x6c6ad301b7d91258, EMPTY],
            [0x44c82cb60fe057cf, 0x2077f58f76aabfc8, EMPTY],
            [0x98412896926579df, 0x151c52be0ec9c0ae, EMPTY],
        ],
    ),
    (
        "tanh",
        &[
            [0x8f29254b5bd28397, 0x54280dd7cb5f8ece, EMPTY],
            [0x467240aa018c2277, 0x5ea080ffc32bab26, EMPTY],
            [0x9f2319403ea45ed8, 0x7b166543c015b9bc, EMPTY],
        ],
    ),
    (
        "sigmoid",
        &[
            [0x42d5fe601fc109bd, 0xb848dc38d0d3ad1d, EMPTY],
            [0xa8d7296ed4b1fdb7, 0x70b290fc356d9e74, EMPTY],
            [0x3a23de996b23e283, 0x3ce580f9508e5c40, EMPTY],
        ],
    ),
    (
        "dropout train",
        &[
            [0xeaab9d4196b8ed3f, 0xde3641decc9ad62a, EMPTY],
            [0xef515f9ccb047664, 0x79e0de993a1c51d7, EMPTY],
            [0x5c951ac4030e48e9, 0x0ec61a10c5468cf6, EMPTY],
        ],
    ),
    (
        "dropout eval",
        &[
            [0x50ec24ad972fd249, 0x0c709323a5bb1ec1, EMPTY],
            [0x3f720a28c9bdbb97, 0x0c709323a5bb1ec1, EMPTY],
            [0x5a831e931c8f0129, 0x0c709323a5bb1ec1, EMPTY],
        ],
    ),
    (
        "flatten",
        &[
            [0xdfd41cdb1c3e3f36, 0x04a98e3da8d94041, EMPTY],
            [0x0f9cae83b0ab74c3, 0x04a98e3da8d94041, EMPTY],
        ],
    ),
    (
        "maxpool2d k2",
        &[
            [0xf8629f5d8775dbb1, 0xf5872ac5de0452f3, EMPTY],
            [0x8981fc07b7c1d5bb, 0x239272781fe5db87, EMPTY],
        ],
    ),
    (
        "maxpool2d k3 s2",
        &[
            [0xc05851a6e4be95f2, 0xb48b8d46e2d779d5, EMPTY],
            [0x88abdc437b613c90, 0x41bf75e56206751c, EMPTY],
        ],
    ),
    (
        "global_avg_pool2d",
        &[
            [0x13871467e555e3fb, 0x4c7bac61568d1bdd, EMPTY],
            [0x0a2f700457ced3fa, 0x4c7bac61568d1bdd, EMPTY],
        ],
    ),
    (
        "batchnorm2d train",
        &[
            [0xef57f0b6967a94bd, 0x9041a0c5f28bb6c1, 0xc8c1bfa4af68a32f],
            [0x978191a12c22eb30, 0xf8c3efe416564c04, 0x9b62d803b7dc0725],
            [0x9f012b66e6ea7412, 0xa7c56f1677098f09, 0xe32345fcb9f41c27],
        ],
    ),
    (
        "batchnorm2d eval",
        &[
            [0xfae88c255dea9c51, 0x1e4e2f140fc9ddfb, 0x5491df17044a416a],
            [0x55549cb66fba51f3, 0x1e4e2f140fc9ddfb, 0xc8bede0c912eef81],
            [0xab3da5745a6020f6, 0x1e4e2f140fc9ddfb, 0x4fa77b5880c62302],
        ],
    ),
    (
        "embedding",
        &[
            [0x3e4d850f3ad63b5e, 0x0243cfa845185aa5, 0xdabc776ada7e132d],
            [0x1eb8d6adb98d3741, 0x0243cfa845185aa5, 0x42d8756ed15c7aea],
            [0x9d6297c6fcae459c, 0x0243cfa845185aa5, 0xce43cf2bcdc35834],
        ],
    ),
    (
        "lstm 3x4x5 h6",
        &[
            [0x5cbe11c4d3a8b485, 0xe331f5efa2adc591, 0xcc8196fd645b634f],
            [0x303fdbf8d2b3a585, 0x0c158ab2167be86e, 0x6391fb63bd502a80],
        ],
    ),
    (
        "lstm 1x7x3 h9",
        &[
            [0x7214a587a72478e3, 0xf1c83df412f7d978, 0xe21f4c67a675f32b],
            [0xfc88e3ff817d5d63, 0x8481a3b1675bb43c, 0x0a2b1312e3dd6c18],
        ],
    ),
    (
        "lstm 2x1x2 h4",
        &[
            [0xbe675d9e01bb64f0, 0xcb6246b9ecb07117, 0x9d8e840c2f9b6b6e],
            [0xfc38b407f8677356, 0x7049f48d3ca4035f, 0x10b1f53e7e82fedf],
        ],
    ),
    (
        "residual 3->3 s1",
        &[
            [0x8fbb898500a0292a, 0x24692b6995b63c81, 0x10984ec9d924e415],
            [0xe6612c845d371f20, 0xb8e0b5e17e80a6f7, 0xb4f53a5b4b0586cb],
        ],
    ),
    (
        "residual 3->6 s2",
        &[
            [0x62db1d2ee51cd902, 0x78da2c815277d38f, 0x2e3db7812250f816],
            [0x779a851ca827f843, 0xd45811c6c07b86ad, 0xdba661300b545886],
        ],
    ),
    (
        "softmax_cross_entropy 1x2",
        &[[0x852881d511140e43, 0xe7149bf514d76c58, EMPTY]],
    ),
    (
        "softmax_cross_entropy 7x10",
        &[[0x3393ad81c9eaa194, 0x399c35c0311880bc, EMPTY]],
    ),
    (
        "softmax_cross_entropy 16x3",
        &[[0xee1164f322222a83, 0x1800c22865f38547, EMPTY]],
    ),
    (
        "cnn chain",
        &[
            [0xacb61b60336074b4, EMPTY, 0x72b936c6abc8c129],
            [0x0938d62f4b04d837, EMPTY, 0xac5720752b02880f],
            [0x3ff66d57048be434, EMPTY, 0x2d9ab8cb6913090e],
        ],
    ),
];

fn pins(case: &str) -> &'static [PassPin] {
    PINS.iter()
        .find(|(name, _)| *name == case)
        .map(|(_, pins)| *pins)
        .unwrap_or_else(|| panic!("no pin recorded for case {case:?}"))
}

fn param_grads(layer: &dyn Layer) -> Vec<f32> {
    let mut grads = Vec::new();
    layer.visit_params(&mut |p| grads.extend_from_slice(p.grad.data()));
    grads
}

/// Runs `inputs` through two clones of `layer`: one with `forward`/`backward`,
/// which take a fresh pool per call, and one with
/// `forward_into`/`backward_into` on a single warm pool, so every pass after
/// the first runs on recycled buffers. Each pass of both must match the
/// case's pins bit for bit.
fn assert_layer_matches_pins(case: &str, layer: &dyn Layer, inputs: &[Tensor], train: bool) {
    let pins = pins(case);
    assert_eq!(pins.len(), inputs.len(), "{case}: one pin per pass");
    let mut fresh = layer.clone_layer();
    let mut warm = layer.clone_layer();
    let mut pool = TensorPool::new();
    for (pass, (input, pin)) in inputs.iter().zip(pins).enumerate() {
        let out_f = fresh.forward(input, train);
        let out_w = warm.forward_into(input, train, &mut pool);
        assert_eq!(
            out_f.dims(),
            out_w.dims(),
            "{case}: forward dims (pass {pass})"
        );

        let grad_out = Tensor::from_vec(
            (0..out_f.numel())
                .map(|i| ((i * 13 % 29) as f32) * 0.21 - 2.9)
                .collect(),
            out_f.dims(),
        );
        let gin_f = fresh.backward(&grad_out);
        let gin_w = warm.backward_into(&grad_out, &mut pool);
        let observed_f = [
            fnv1a(out_f.data()),
            fnv1a(gin_f.data()),
            fnv1a(&param_grads(fresh.as_ref())),
        ];
        let observed_w = [
            fnv1a(out_w.data()),
            fnv1a(gin_w.data()),
            fnv1a(&param_grads(warm.as_ref())),
        ];
        assert_eq!(
            observed_f, *pin,
            "{case}: fresh pool per call (pass {pass})"
        );
        assert_eq!(observed_w, *pin, "{case}: warm shared pool (pass {pass})");
        pool.recycle(out_w);
        pool.recycle(gin_w);
    }
}

fn image_batch(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    init::normal(dims, 0.0, 1.0, &mut rng)
}

#[test]
fn linear_pooled_forms_match_allocating_forms() {
    // Odd shapes: feature dims off the 8-wide tile, batch 1, empty batch.
    for &(batch, inf, outf) in &[(5usize, 7usize, 3usize), (1, 13, 9), (0, 4, 6), (16, 32, 10)] {
        let mut rng = SeededRng::new(42 + batch as u64);
        let layer = Linear::new(inf, outf, &mut rng);
        let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[batch, inf], i)).collect();
        let case = format!("linear {batch}x{inf}->{outf}");
        assert_layer_matches_pins(&case, &layer, &inputs, true);
    }
}

#[test]
fn conv2d_pooled_forms_match_allocating_forms() {
    for &(n, c, oc, hw, k, s, p) in &[
        (2usize, 3usize, 5usize, 9usize, 3usize, 1usize, 1usize),
        (1, 1, 2, 7, 3, 2, 0),
        (3, 2, 4, 8, 1, 1, 0),
    ] {
        let mut rng = SeededRng::new(7 + n as u64);
        let layer = Conv2d::new(c, oc, k, s, p, &mut rng);
        let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[n, c, hw, hw], 10 + i)).collect();
        let case = format!("conv2d {n}x{c}x{hw}x{hw} ->{oc} k{k} s{s} p{p}");
        assert_layer_matches_pins(&case, &layer, &inputs, true);
    }
}

#[test]
fn activation_pooled_forms_match_allocating_forms() {
    let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[3, 11], 20 + i)).collect();
    assert_layer_matches_pins("relu", &Relu::new(), &inputs, true);
    assert_layer_matches_pins("tanh", &Tanh::new(), &inputs, true);
    assert_layer_matches_pins("sigmoid", &Sigmoid::new(), &inputs, true);
}

#[test]
fn dropout_pooled_forms_match_allocating_forms() {
    // The two clones share the forked mask RNG state, so masks line up.
    let mut rng = SeededRng::new(31);
    let layer = Dropout::new(0.4, &mut rng);
    let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[6, 10], 30 + i)).collect();
    assert_layer_matches_pins("dropout train", &layer, &inputs, true);
    // Eval mode exercises the identity path.
    let mut rng = SeededRng::new(32);
    let eval_layer = Dropout::new(0.4, &mut rng);
    assert_layer_matches_pins("dropout eval", &eval_layer, &inputs, false);
}

#[test]
fn shape_layers_pooled_forms_match_allocating_forms() {
    let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[2, 3, 6, 6], 40 + i)).collect();
    assert_layer_matches_pins("flatten", &Flatten::new(), &inputs, true);
    assert_layer_matches_pins("maxpool2d k2", &MaxPool2d::new(2), &inputs, true);
    assert_layer_matches_pins(
        "maxpool2d k3 s2",
        &MaxPool2d::with_stride(3, 2),
        &inputs,
        true,
    );
    assert_layer_matches_pins("global_avg_pool2d", &GlobalAvgPool2d::new(), &inputs, true);
}

#[test]
fn batchnorm_pooled_forms_match_allocating_forms() {
    let layer = BatchNorm2d::new(3);
    let inputs: Vec<Tensor> = (0..3).map(|i| image_batch(&[2, 3, 5, 5], 50 + i)).collect();
    assert_layer_matches_pins("batchnorm2d train", &layer, &inputs, true);
    // Eval mode uses the running statistics branch.
    let mut warm = BatchNorm2d::new(3);
    warm.forward(&inputs[0], true);
    assert_layer_matches_pins("batchnorm2d eval", &warm, &inputs, false);
}

#[test]
fn embedding_pooled_forms_match_allocating_forms() {
    let mut rng = SeededRng::new(61);
    let layer = Embedding::new(17, 5, &mut rng);
    let inputs: Vec<Tensor> = (0..3)
        .map(|s| {
            Tensor::from_vec(
                (0..4 * 6).map(|i| ((i * 5 + s as usize) % 17) as f32).collect(),
                &[4, 6],
            )
        })
        .collect();
    assert_layer_matches_pins("embedding", &layer, &inputs, true);
}

#[test]
fn lstm_pooled_forms_match_allocating_forms() {
    for &(n, t, d, h) in &[(3usize, 4usize, 5usize, 6usize), (1, 7, 3, 9), (2, 1, 2, 4)] {
        let mut rng = SeededRng::new(70 + n as u64);
        let layer = Lstm::new(d, h, &mut rng);
        let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[n, t, d], 80 + i)).collect();
        assert_layer_matches_pins(&format!("lstm {n}x{t}x{d} h{h}"), &layer, &inputs, true);
    }
}

#[test]
fn residual_block_pooled_forms_match_allocating_forms() {
    for &(cin, cout, stride) in &[(3usize, 3usize, 1usize), (3, 6, 2)] {
        let mut rng = SeededRng::new(90 + cout as u64);
        let layer = ResidualBlock::new(cin, cout, stride, &mut rng);
        let inputs: Vec<Tensor> = (0..2).map(|i| image_batch(&[2, cin, 8, 8], 95 + i)).collect();
        let case = format!("residual {cin}->{cout} s{stride}");
        assert_layer_matches_pins(&case, &layer, &inputs, true);
    }
}

// ---------------------------------------------------------------------------
// Loss, model chain, first-layer gradient skip
// ---------------------------------------------------------------------------

#[test]
fn pooled_loss_matches_allocating_loss_bitwise() {
    // Pinned as [loss, dL/d(logits), EMPTY]; `softmax_cross_entropy` takes a
    // fresh pool per call, the `_into` form one warm pool.
    let mut pool = TensorPool::new();
    for &(batch, classes) in &[(1usize, 2usize), (7, 10), (16, 3)] {
        let logits = image_batch(&[batch, classes], 100 + batch as u64);
        let labels: Vec<usize> = (0..batch).map(|i| (i * 3 + 1) % classes).collect();
        let (loss_f, grad_f) = softmax_cross_entropy(&logits, &labels);
        let (loss_w, grad_w) = softmax_cross_entropy_into(&logits, &labels, &mut pool);
        let pin = pins(&format!("softmax_cross_entropy {batch}x{classes}"))[0];
        assert_eq!([fnv1a(&[loss_f]), fnv1a(grad_f.data()), EMPTY], pin);
        assert_eq!([fnv1a(&[loss_w]), fnv1a(grad_w.data()), EMPTY], pin);
        pool.recycle(grad_w);
    }
}

#[test]
fn sequential_pooled_chain_matches_allocating_chain() {
    // A model covering conv, pool, flatten, linear and relu; the chain (with
    // its first-layer input-gradient skip) must leave logits and gradients
    // bitwise equal to the pins, on a fresh pool per call and on a warm one.
    // Pinned per step as [logits, EMPTY, grads_flat].
    let config = CnnConfig {
        conv_channels: (3, 6),
        fc_hidden: 12,
        kernel: 3,
    };
    let mut rng = SeededRng::new(123);
    let mut model_f = cnn((3, 16, 16), 10, config, &mut rng);
    let mut model_w = model_f.clone_model();
    let mut pool = TensorPool::new();
    for (step, pin) in pins("cnn chain").iter().enumerate() {
        let x = image_batch(&[4, 3, 16, 16], 200 + step as u64);
        let labels: Vec<usize> = (0..4).map(|i| (i + step) % 10).collect();

        model_f.zero_grads();
        let logits_f = model_f.forward(&x, true);
        let (_, grad_f) = softmax_cross_entropy(&logits_f, &labels);
        model_f.backward(&grad_f);
        let observed_f = [fnv1a(logits_f.data()), EMPTY, fnv1a(&model_f.grads_flat())];
        assert_eq!(observed_f, *pin, "fresh pool per call, step {step}");

        model_w.zero_grads();
        let logits_w = model_w.forward_into(&x, true, &mut pool);
        let logits_hash = fnv1a(logits_w.data());
        let (_, grad_w) = softmax_cross_entropy_into(&logits_w, &labels, &mut pool);
        pool.recycle(logits_w);
        model_w.backward_into(&grad_w, &mut pool);
        pool.recycle(grad_w);
        let observed_w = [logits_hash, EMPTY, fnv1a(&model_w.grads_flat())];
        assert_eq!(observed_w, *pin, "warm shared pool, step {step}");
    }
}

/// Uploads of [`parameter_free_leading_layers_match_pinned_uploads`]: per
/// chain, the FNV-1a of each of the four jobs' uploads and of the mean
/// training loss, identical at every rayon thread count.
const LEADING_FLATTEN_PINS: [(&str, [u64; 5]); 2] = [
    (
        "flatten-linear128-relu-linear10",
        [
            0x3a74118705c7536e,
            0x55672db5e1808ee8,
            0xc9146add73756fc6,
            0x7eb4f908048535f6,
            0xdd114ba2a9e80208,
        ],
    ),
    (
        "flatten-relu-linear10",
        [
            0xf24fd1fe4f9ca899,
            0x1e0d8c74fd0fd53f,
            0xc658bb2d72e423cf,
            0x0ea88218ac4affe1,
            0xa04a7170c407b2e3,
        ],
    ),
];

#[test]
fn parameter_free_leading_layers_match_pinned_uploads() {
    // Chains whose first layers carry no parameters, trained as four jobs
    // of one round. At two threads the jobs run inside rayon workers, and
    // the 8x768x128 forward product crosses the matmul parallel threshold.
    let data = image_task(17, 4);
    let local = LocalTrainConfig {
        epochs: 2,
        batch_size: 8,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 1e-4,
    };
    let mut rng = SeededRng::new(19);
    let chains = [
        Sequential::new("flatten-linear128-relu-linear10")
            .push(Flatten::new())
            .push(Linear::new(3 * 16 * 16, 128, &mut rng))
            .push(Relu::new())
            .push(Linear::new(128, 10, &mut rng)),
        Sequential::new("flatten-relu-linear10")
            .push(Flatten::new())
            .push(Relu::new())
            .push(Linear::new(3 * 16 * 16, 10, &mut rng)),
    ];
    for (template, (name, pin)) in chains.iter().zip(LEADING_FLATTEN_PINS) {
        assert_eq!(template.arch_name(), name, "pin table order drifted");
        for threads in [1, 2] {
            rayon::set_num_threads(threads);
            let mut comm = CommTracker::new();
            let mut pool = ClientWorkerPool::new();
            let mut ctx = RoundContext::new(
                &data,
                template,
                local,
                4,
                SeededRng::new(23),
                &mut comm,
                &mut pool,
            );
            let jobs = (0..4)
                .map(|client| TrainJob::plain(client, template.params_flat()))
                .collect();
            let updates = ctx.local_train_jobs(jobs);
            let mean_loss = updates.iter().map(|u| u.train_loss).sum::<f32>() / 4.0;
            let mut observed = [0u64; 5];
            for (slot, update) in observed.iter_mut().zip(&updates) {
                *slot = fnv1a(update.params.as_slice());
            }
            observed[4] = fnv1a(&[mean_loss]);
            rayon::set_num_threads(0);
            assert_eq!(
                observed, pin,
                "{name} at {threads} threads: observed {observed:#018x?}"
            );
        }
    }
}

#[test]
fn read_params_into_matches_params_flat() {
    let mut rng = SeededRng::new(321);
    let model = mlp(12, &[9, 5], 3, &mut rng);
    let mut buf = vec![f32::NAN; 4];
    model.read_params_into(&mut buf);
    assert_eq!(bits(&buf), bits(&model.params_flat()));
    let mut gbuf = Vec::new();
    model.read_grads_into(&mut gbuf);
    assert_eq!(bits(&gbuf), bits(&model.grads_flat()));
}

// ---------------------------------------------------------------------------
// Whole-loop equivalence: local_train vs the seed's allocating loop
// ---------------------------------------------------------------------------

/// The seed implementation of one client's local training, written exactly as
/// before this refactor: per-epoch `minibatches` allocation, allocating
/// forward/backward, flat-vector SGD with its own velocity buffer.
fn reference_local_train(
    model: &mut dyn Model,
    data: &Dataset,
    config: &LocalTrainConfig,
    rng: &mut SeededRng,
) -> Vec<f32> {
    let mut velocity = vec![0f32; model.param_count()];
    for _ in 0..config.epochs {
        for batch in data.minibatches(config.batch_size, Some(rng)) {
            model.zero_grads();
            let logits = model.forward(&batch.features, true);
            let (_, grad) = softmax_cross_entropy(&logits, &batch.labels);
            model.backward(&grad);
            let mut params = model.params_flat();
            let grads = model.grads_flat();
            for i in 0..params.len() {
                let mut g = grads[i];
                if config.weight_decay > 0.0 {
                    g += config.weight_decay * params[i];
                }
                let v = config.momentum * velocity[i] + g;
                velocity[i] = v;
                params[i] -= config.lr * v;
            }
            model.set_params_flat(&params);
        }
    }
    model.params_flat()
}

fn flatten_images(data: &Dataset) -> Dataset {
    let n = data.len();
    let dim: usize = data.sample_dims().iter().product();
    Dataset::new(
        data.features().reshape(&[n, dim]),
        data.labels().to_vec(),
        data.num_classes(),
    )
}

fn image_task(seed: u64, clients: usize) -> FederatedDataset {
    let mut rng = SeededRng::new(seed);
    FederatedDataset::synth_cifar10(
        &SynthCifar10Config {
            num_clients: clients,
            samples_per_client: 20,
            test_samples: 30,
            ..Default::default()
        },
        Heterogeneity::Dirichlet(0.5),
        &mut rng,
    )
}

#[test]
fn local_train_is_bitwise_identical_to_seed_loop() {
    let data = image_task(7, 3);
    let config = LocalTrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 1e-4,
    };

    // CNN (conv/pool/flatten/linear plane).
    let mut rng = SeededRng::new(55);
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (3, 6),
            fc_hidden: 12,
            kernel: 3,
        },
        &mut rng,
    );
    let mut pooled_model = template.clone_model();
    let update = local_train(
        0,
        pooled_model.as_mut(),
        data.client(0),
        &config,
        &mut SeededRng::new(77),
        None,
    );
    let mut ref_model = template.clone_model();
    let reference =
        reference_local_train(ref_model.as_mut(), data.client(0), &config, &mut SeededRng::new(77));
    assert_eq!(bits(update.params.as_slice()), bits(&reference), "cnn");

    // MLP (pure linear plane) on flattened features.
    let mut rng = SeededRng::new(56);
    let template = mlp(3 * 16 * 16, &[24, 12], 10, &mut rng);
    let flat = flatten_images(data.client(1));
    let mut pooled_model = template.clone_model();
    let update = local_train(
        1,
        pooled_model.as_mut(),
        &flat,
        &config,
        &mut SeededRng::new(78),
        None,
    );
    let mut ref_model = template.clone_model();
    let reference =
        reference_local_train(ref_model.as_mut(), &flat, &config, &mut SeededRng::new(78));
    assert_eq!(bits(update.params.as_slice()), bits(&reference), "mlp");
}

#[test]
fn gather_batch_reproduces_minibatches() {
    let data = flatten_images(image_task(11, 2).client(0));
    let batch_size = 6;
    let reference = data.minibatches(batch_size, Some(&mut SeededRng::new(5)));
    let mut order = Vec::new();
    data.epoch_order(Some(&mut SeededRng::new(5)), &mut order);
    let mut batch = Batch::reusable();
    for (i, chunk) in order.chunks(batch_size).enumerate() {
        data.gather_batch(chunk, &mut batch);
        assert_eq!(bits(batch.features.data()), bits(reference[i].features.data()));
        assert_eq!(batch.labels, reference[i].labels);
        assert_eq!(batch.features.dims(), reference[i].features.dims());
    }
}

// ---------------------------------------------------------------------------
// Fixed-seed trajectory fingerprints (recorded from the pre-PR pipeline)
// ---------------------------------------------------------------------------

/// FNV-1a fingerprints of fixed-seed training trajectories recorded with the
/// PR 1 (pre-training-plane) pipeline via `examples/trajectory_probe.rs`.
/// Any single-bit divergence anywhere in dispatch, training, loss, optimizer
/// or aggregation moves these hashes.
const FEDCROSS_GLOBAL_FINGERPRINT: u64 = 0x6a3f7ad376e78a38;
const CNN_LOCAL_TRAIN_FINGERPRINT: u64 = 0x9232324d6247755f;
const RESNET_LOCAL_TRAIN_FINGERPRINT: u64 = 0x05d75076902b6b4f;
const LSTM_LOCAL_TRAIN_FINGERPRINT: u64 = 0xe53afd52b8e5e469;

/// Canonical trajectory fingerprint (metric bits, comm counters, final-model
/// bits) of every shipped algorithm on the `fedcross_bench::determinism`
/// fixture, in [`SweptAlgorithm::shipped`] order, recorded before the algorithms
/// shared one server skeleton (`fedcross::server`). SecureAgg-FedAvg's value
/// is its dispatch-order trajectory, which it now also produces under a
/// permuted upload arrival order.
const ALGORITHM_FINGERPRINTS: [(&str, u64); 14] = [
    ("FedAvg", 0x0fa424bd91b4a0cd),
    ("FedProx", 0xc39883989763cffd),
    ("SCAFFOLD", 0x16bdf7a9181307a7),
    ("FedGen", 0xdaa36676e9df43f5),
    ("CluSamp", 0x81ef4b49ee22186c),
    ("FedCross", 0x06b452b19e1efd2b),
    ("Robust-FedAvg", 0xfd41c7819e91c5dd),
    ("Robust-FedCross", 0xe41d56c562f0e62a),
    ("Buffered-FedAvg", 0x27798de05f5b9ffb),
    ("Buffered-FedCross", 0xbe585dbc2463bb87),
    ("DP-FedAvg", 0x47892885db5cb2f1),
    ("DP-FedCross", 0x2b9299a141b37169),
    ("Compressed-FedAvg", 0x3b04ff88d7f5ebe6),
    ("SecureAgg-FedAvg", 0x3646bb6670bb3ea7),
];

/// Runs every algorithm on the fingerprint fixture and asserts each against
/// its pin, in table order, listing every divergence at once.
fn assert_pinned_fingerprints(algorithms: Vec<SweptAlgorithm>, pins: &[(&str, u64)]) {
    assert_eq!(
        algorithms.len(),
        pins.len(),
        "an algorithm has no pinned fingerprint"
    );
    let diverged: Vec<String> = algorithms
        .into_iter()
        .zip(pins)
        .filter_map(|(algorithm, &(label, pinned))| {
            assert_eq!(algorithm.label(), label, "pin table order drifted");
            let actual = spec_fingerprint(algorithm, None);
            (actual != pinned).then(|| format!("{label}: {actual:016x} != pinned {pinned:016x}"))
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "trajectories diverged from their pins:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn every_algorithm_matches_its_pinned_fingerprint() {
    assert_pinned_fingerprints(SweptAlgorithm::shipped(), &ALGORITHM_FINGERPRINTS);
}

/// Fingerprints of [`rule_and_noise_variants`] on the same fixture, in table
/// order: the median, Krum and norm-bound paths of RobustFedCross, the
/// trimmed-mean, Krum and norm-bound paths of RobustFedAvg, and local-noise
/// DP-FedCross and DP-FedAvg, recorded before the FedCross variants staged
/// their candidates in `fedcross::server::Middleware`.
const VARIANT_FINGERPRINTS: [(&str, u64); 8] = [
    ("Robust-FedCross(median)", 0xfeb8361f51a9d316),
    ("Robust-FedCross(krum)", 0x60dd211f88975ee2),
    ("Robust-FedCross(norm-bound)", 0xe2c0f07c46793ce6),
    ("Robust-FedAvg(trimmed-mean)", 0x25958907a00d92f0),
    ("Robust-FedAvg(krum)", 0x9cf302d7ec94b61b),
    ("Robust-FedAvg(norm-bound)", 0xe840fc610f6ccc72),
    ("DP-FedCross(local)", 0x629c95985526fc3f),
    ("DP-FedAvg(local)", 0xd492a2d6262e2599),
];

#[test]
fn every_rule_and_noise_variant_matches_its_pinned_fingerprint() {
    assert_pinned_fingerprints(rule_and_noise_variants(), &VARIANT_FINGERPRINTS);
}

#[test]
fn fedcross_trajectory_matches_pre_refactor_fingerprint() {
    let data = image_task(7, 6);
    let mut rng = SeededRng::new(3);
    let template = cnn(
        (3, 16, 16),
        10,
        CnnConfig {
            conv_channels: (3, 6),
            fc_hidden: 12,
            kernel: 3,
        },
        &mut rng,
    );
    let config = FedCrossConfig {
        alpha: 0.9,
        strategy: SelectionStrategy::LowestSimilarity,
        measure: SimilarityMeasure::Cosine,
        ..Default::default()
    };
    let mut algo = FedCross::new(config, template.params_flat(), 4);
    let master = SeededRng::new(99);
    for round in 0..3 {
        let mut comm = CommTracker::new();
        let mut pool = ClientWorkerPool::new();
        let mut ctx = RoundContext::new(
            &data,
            template.as_ref(),
            LocalTrainConfig::fast(),
            4,
            master.fork(round as u64),
            &mut comm,
            &mut pool,
        );
        algo.run_round(round, &mut ctx);
    }
    assert_eq!(
        fnv1a(&algo.global_params()),
        FEDCROSS_GLOBAL_FINGERPRINT,
        "the FedCross training trajectory diverged from the pre-refactor pipeline"
    );
}

#[test]
fn cnn_local_train_matches_pre_refactor_fingerprint() {
    let data = image_task(7, 6);
    let mut rng = SeededRng::new(11);
    let mut model = fedavg_cnn((3, 16, 16), 10, &mut rng);
    let local = LocalTrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 1e-4,
    };
    let update = local_train(
        0,
        model.as_mut(),
        data.client(0),
        &local,
        &mut SeededRng::new(13),
        None,
    );
    assert_eq!(fnv1a(update.params.as_slice()), CNN_LOCAL_TRAIN_FINGERPRINT);
}

#[test]
fn resnet_local_train_matches_pre_refactor_fingerprint() {
    let data = image_task(7, 6);
    let mut rng = SeededRng::new(23);
    let mut model = resnet20_lite((3, 16, 16), 10, &mut rng);
    let local = LocalTrainConfig {
        epochs: 1,
        batch_size: 10,
        lr: 0.05,
        momentum: 0.5,
        weight_decay: 0.0,
    };
    let update = local_train(
        2,
        model.as_mut(),
        data.client(2),
        &local,
        &mut SeededRng::new(29),
        None,
    );
    assert_eq!(fnv1a(update.params.as_slice()), RESNET_LOCAL_TRAIN_FINGERPRINT);
}

#[test]
fn lstm_local_train_matches_pre_refactor_fingerprint() {
    let mut rng = SeededRng::new(31);
    let mut model = lstm_classifier(
        LstmConfig {
            vocab: 32,
            embed_dim: 8,
            hidden_dim: 16,
        },
        8,
        &mut rng,
    );
    let tokens: Vec<f32> = (0..40 * 12).map(|i| ((i * 7 + 3) % 32) as f32).collect();
    let labels: Vec<usize> = (0..40).map(|i| (i * 5 + 1) % 8).collect();
    let text = Dataset::new(Tensor::from_vec(tokens, &[40, 12]), labels, 8);
    let update = local_train(
        3,
        model.as_mut(),
        &text,
        &LocalTrainConfig::fast(),
        &mut SeededRng::new(37),
        None,
    );
    assert_eq!(fnv1a(update.params.as_slice()), LSTM_LOCAL_TRAIN_FINGERPRINT);
}
