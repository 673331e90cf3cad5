"""Speaker encoder: shapes, gradients, pooling, accounting, checkpoint I/O."""

import json
import os

import numpy as np
import pytest

from helpers import assert_directional_grads_close
from tcssd import checkpoint
from tcssd.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from tcssd.cm_distribution import Cm2Net
from tcssd.cm_temporal import Cm1Config, Cm1Net
from tcssd.config import toy_config
from tcssd.encoder import (EncoderConfig, FrontendNet, count_parameters,
                           encode_features, estimate_flops)
from tcssd.errors import CheckpointError, DataError
from tcssd.frontend import N_MELS, FeatureMap
from tcssd.layers import (AttentiveStatsPool, ClassWeights, Conv1d, Gru, Linear,
                          init_layers, relu, tensor_names)


def make_toy_checkpoint(seed=0):
    cfg = toy_config().encoder
    params = init_layers(FrontendNet(cfg).layers(), np.random.default_rng(seed))
    return cfg, Checkpoint(tensors=params, frozen_names=set(), config={})


def random_fbank(rng, t=198):
    return FeatureMap(values=rng.standard_normal((t, 80)).astype(np.float32))


def test_frontend_concat_gradients_match_finite_differences():
    """Stem, Res2 blocks and SE gates: every tensor and the input gradient
    of ``backward_concat`` against central differences along random
    directions, in float64 (an element-wise sweep would take ~40 s)."""
    net = FrontendNet(toy_config().encoder, trained=True)
    layers = net.concat_layers()
    params = init_layers(layers, np.random.default_rng(11), dtype=np.float64)
    rng = np.random.default_rng(12)
    names = tensor_names(layers)
    for name in names:  # move norms, biases and gates off their init values
        if params[name].ndim == 1:
            params[name] = params[name] + 0.5 * rng.standard_normal(params[name].shape)
    params["x"] = rng.standard_normal((2, 9, N_MELS))
    r = rng.standard_normal((2, 9, len(net.cfg.dilations) * net.cfg.channels))
    cat, cache = net.forward_concat(params, params["x"])
    grads = {}
    grads["x"] = net.backward_concat(params, cache, r, grads)
    assert sorted(grads) == sorted(names + ["x"])

    def loss_fn():
        return float((net.forward_concat(params, params["x"])[0] * r).sum())

    assert_directional_grads_close(loss_fn, params, grads, names + ["x"],
                                   np.random.default_rng(13))


def test_frozen_and_trained_frontends_agree_bit_for_bit():
    """Freezing the concat only drops its cache: tap-point features and
    embeddings of an FBank batch are the same bits either way."""
    cfg, ckpt = make_toy_checkpoint(14)
    x = np.random.default_rng(14).standard_normal((3, 40, N_MELS)).astype(np.float32)
    frozen, trained = FrontendNet(cfg), FrontendNet(cfg, trained=True)
    assert np.array_equal(frozen.tap(ckpt.tensors, x)[0], trained.tap(ckpt.tensors, x)[0])
    assert np.array_equal(frozen.embed(ckpt.tensors, x)[0],
                          trained.embed(ckpt.tensors, x)[0])


def test_frontend_embed_gradients_match_finite_differences():
    """The toy-frontend training path on FBank input: ``backward_embed``
    through the projection, pooling, MFA tap and concat, for every tensor
    ``embed`` reads, against central differences along random directions."""
    net = FrontendNet(toy_config().encoder, trained=True)
    layers = [l for l in net.layers() if l is not net.cls]
    params = init_layers(layers, np.random.default_rng(21), dtype=np.float64)
    rng = np.random.default_rng(22)
    names = tensor_names(layers)
    for name in names:  # move norms, biases and gates off their init values
        if params[name].ndim == 1:
            params[name] = params[name] + 0.5 * rng.standard_normal(params[name].shape)
    x = rng.standard_normal((2, 9, N_MELS))
    r = rng.standard_normal((2, net.cfg.embed_dim))
    emb, cache = net.embed(params, x)
    grads = {}
    net.backward_embed(params, cache, r, grads)
    assert sorted(grads) == sorted(names)

    def loss_fn():
        return float((net.embed(params, x)[0] * r).sum())

    assert_directional_grads_close(loss_fn, params, grads, names,
                                   np.random.default_rng(23))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mfa_relu_mask_from_activation_equals_pre_activation_mask(dtype):
    """``forward_mfa`` keeps only the activation; masking with it gives the
    MFA conv the gradients of the pre-activation mask, bit for bit, with
    exact zeros, -0.0 and NaN in the conv output."""
    net = Cm2Net(toy_config().encoder)
    params = init_layers([net.mfa_conv], np.random.default_rng(24), dtype=dtype)
    rng = np.random.default_rng(25)
    cat = rng.standard_normal((2, 12, net.cfg.concat_width)).astype(dtype)
    dfeats = rng.standard_normal((2, 12, net.cfg.mfa_dim)).astype(dtype)
    conv, pre = net.mfa_conv.forward, []

    def forward(params, x):
        y, cache = conv(params, x)
        y[:, 0::3, 0], y[:, 1::3, 0], y[:, :, 1] = 0.0, -0.0, np.nan
        pre.append(y.copy())
        return y, cache

    net.mfa_conv.forward = forward
    feats, cache = net.forward_mfa(params, cat)
    (pre,) = pre
    assert np.signbit(pre[:, 1::3, 0]).all() and feats.tobytes() == relu(pre).tobytes()
    grads, want = {}, {}
    net.backward_features(params, cache, dfeats, grads)
    net.mfa_conv.backward(params, cat, dfeats * (pre > 0), want, input_grad=False)
    assert grads.keys() == want.keys()
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


# ---------------------------------------------------------------------------
# encode_features
# ---------------------------------------------------------------------------

def test_encode_shape_contract():
    cfg, ckpt = make_toy_checkpoint()
    f = random_fbank(np.random.default_rng(0))
    s = encode_features(f, cfg, ckpt)
    assert s.shape == (198, cfg.mfa_dim)


def test_encode_deterministic():
    cfg, ckpt = make_toy_checkpoint()
    f = random_fbank(np.random.default_rng(1))
    a = encode_features(f, cfg, ckpt)
    b = encode_features(f, cfg, ckpt)
    assert np.array_equal(a, b)


def test_encode_preserves_frame_count():
    cfg, ckpt = make_toy_checkpoint()
    rng = np.random.default_rng(2)
    for _ in range(8):
        t = int(rng.integers(1, 120))
        s = encode_features(random_fbank(rng, t=t), cfg, ckpt)
        assert s.shape[0] == t


def test_encode_wrong_channels_rejected():
    cfg, ckpt = make_toy_checkpoint()
    f = FeatureMap(values=np.zeros((10, 40), dtype=np.float32))
    with pytest.raises(DataError, match="channels"):
        encode_features(f, cfg, ckpt)


def test_encode_missing_tensor_rejected():
    cfg, ckpt = make_toy_checkpoint()
    del ckpt.tensors["frontend.stem.conv.w"]
    with pytest.raises(CheckpointError, match="frontend.stem.conv.w"):
        encode_features(random_fbank(np.random.default_rng(0)), cfg, ckpt)


@pytest.mark.parametrize("fields", [
    dict(channels=80, dilations=(2,)), dict(channels=40, dilations=(2, 3)),
    dict(channels=16, dilations=(2, 3, 4), mfa_dim=48), dict(mfa_dim=80),
])
def test_encoder_config_refuses_equal_lane_widths(fields):
    """A map's width picks its lane in ``FrontendNet.tap``, so the FBank,
    tap and concat widths must all differ."""
    cfg = {"channels": 1024, "dilations": (2, 3, 4), "mfa_dim": 1536, **fields}
    widths = (80, cfg["mfa_dim"], len(cfg["dilations"]) * cfg["channels"])
    with pytest.raises(DataError) as err:
        EncoderConfig(**fields)
    assert str(err.value) == (
        "a map's width picks its lane, so these must differ: N_MELS = %d, "
        "mfa_dim = %d, len(dilations) * channels = %d" % widths)


def test_full_scale_mfa_width_matches_recurrent_input():
    # The full-scale tap width must equal the recurrent input width (1536).
    cfg = EncoderConfig()
    net = FrontendNet(cfg)
    assert net.mfa_conv.out_ch == 1536
    assert Cm1Net(Cm1Config(), cfg).layers()[0].input_dim == net.mfa_conv.out_ch


def test_full_scale_forward_shape():
    # short input through the C=1024 encoder: T x 80 -> T x 1536
    cfg = EncoderConfig()
    params = init_layers(FrontendNet(cfg).layers(), np.random.default_rng(0))
    ckpt = Checkpoint(tensors=params, frozen_names=set(), config={})
    f = FeatureMap(values=np.random.default_rng(1)
                   .standard_normal((6, 80)).astype(np.float32))
    s = encode_features(f, cfg, ckpt)
    assert s.shape == (6, 1536)
    assert np.all(np.isfinite(s))


# ---------------------------------------------------------------------------
# Attentive pooling
# ---------------------------------------------------------------------------

def _pool_params(rng, dim=4, att=3, emb=5):
    layers = [AttentiveStatsPool("frontend.pool", dim, att),
              Linear("frontend.proj", 2 * dim, emb)]
    return init_layers(layers, rng, dtype=np.float64)


def attentive_stats(values, params):
    """(mu, sigma, alpha) of the pooling layer over one T x D map."""
    d = values.shape[1]
    pool = AttentiveStatsPool("frontend.pool", d,
                              params["frontend.pool.att.fc1.w"].shape[0])
    out, cache = pool.forward(params, values[None, :, :])
    alpha = cache[4]
    return out[0, :d], out[0, d:], alpha[0]


def test_pool_constant_input_moments():
    params = _pool_params(np.random.default_rng(0))
    v = np.array([1.5, -2.0, 0.25, 3.0])
    s = np.tile(v, (7, 1))
    mu, sigma, alpha = attentive_stats(s, params)
    np.testing.assert_allclose(mu, v, atol=1e-12)
    np.testing.assert_allclose(sigma, 0.0, atol=2e-4)  # eps under the sqrt
    np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-6)


def test_pool_single_frame():
    params = _pool_params(np.random.default_rng(1))
    v = np.array([[0.5, 1.0, -1.0, 2.0]])
    mu, sigma, alpha = attentive_stats(v, params)
    np.testing.assert_allclose(mu, v[0], atol=1e-12)
    np.testing.assert_allclose(sigma, 0.0, atol=2e-4)
    assert alpha.shape == (1,)
    np.testing.assert_allclose(alpha, [1.0])


def test_pool_matches_direct_formula():
    rng = np.random.default_rng(2)
    params = _pool_params(rng)
    x = rng.standard_normal((5, 4))
    mu, sigma, alpha = attentive_stats(x, params)
    # independent high-precision evaluation of the documented formulas
    w1, b1 = params["frontend.pool.att.fc1.w"], params["frontend.pool.att.fc1.b"]
    w2, b2 = params["frontend.pool.att.fc2.w"], params["frontend.pool.att.fc2.b"]
    scores = np.tanh(x @ w1.T + b1) @ w2.T + b2
    e = np.exp(scores[:, 0] - scores[:, 0].max())
    a_ref = e / e.sum()
    mu_ref = (a_ref[:, None] * x).sum(0)
    var_ref = (a_ref[:, None] * x * x).sum(0) - mu_ref ** 2
    sigma_ref = np.sqrt(np.clip(var_ref, 0, None) + 1e-8)
    np.testing.assert_allclose(alpha, a_ref, atol=1e-12)
    np.testing.assert_allclose(mu, mu_ref, atol=1e-12)
    np.testing.assert_allclose(sigma, sigma_ref, atol=1e-12)


def test_pool_attention_sums_to_one_and_sigma_nonneg():
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = _pool_params(rng)
        x = rng.standard_normal((int(rng.integers(1, 30)), 4))
        mu, sigma, alpha = attentive_stats(x, params)
        assert abs(alpha.sum() - 1.0) < 1e-6
        assert np.all(sigma >= 0)


def test_pool_embedding_projects():
    rng = np.random.default_rng(4)
    params = _pool_params(rng)
    x = rng.standard_normal((6, 4))
    net = FrontendNet(EncoderConfig(channels=16, mfa_dim=4, embed_dim=5, att_dim=3))
    emb, _ = net.embed(params, x[None])
    assert emb.shape == (1, 5)
    stats = np.concatenate(attentive_stats(x, params)[:2])
    want = params["frontend.proj.w"] @ stats + params["frontend.proj.b"]
    np.testing.assert_allclose(emb[0], want, atol=1e-12)


# ---------------------------------------------------------------------------
# Parameter counting / FLOPs
# ---------------------------------------------------------------------------

def test_count_single_linear():
    assert count_parameters([Linear("m.fc", 1536, 512)]) == 1536 * 512 + 512 == 786944


def test_count_single_gru_layer():
    layers = [Gru("m.gru", 1536, 1536, n_layers=1)]
    assert count_parameters(layers) == 3 * ((1536 + 1536) * 1536 + 2 * 1536) == 14164992


def test_count_empty_model():
    assert count_parameters([]) == 0


def test_count_excludes_frozen():
    """CM2's count holds its retrained head only, no frozen frontend tensor."""
    c = toy_config().encoder
    layers = Cm2Net(c).layers()
    assert not [n for n in tensor_names(layers) if n.startswith("frontend.")]
    want = ((len(c.dilations) * c.channels + 1) * c.mfa_dim     # MFA conv
            + (c.mfa_dim + 1) * c.att_dim + c.att_dim + 1  # attention
            + (2 * c.mfa_dim + 1) * c.embed_dim            # projection
            + 2 * c.embed_dim)                             # class rows
    assert count_parameters(layers) == want


def test_count_matches_declared_tensors():
    # self-consistency: count equals the sum over declared tensor shapes
    layers = Cm1Net(Cm1Config(), EncoderConfig()).layers()
    total = sum(int(np.prod(shape)) for layer in layers
                for _, shape in layer.param_specs())
    assert count_parameters(layers) == total


def test_flops_linear_one_frame():
    assert estimate_flops([Linear("m.fc", 1536, 512)], 0.01) == 2 * 1536 * 512 == 1572864


def test_flops_zero_duration():
    layers = [Linear("m.fc", 1536, 512), Conv1d("m.c", 4, 8, 3)]
    assert estimate_flops(layers, 0.0) == 0


def test_flops_toy_conv():
    assert estimate_flops([Conv1d("m.c", 4, 8, 3)], 0.1) == 2 * 4 * 8 * 3 * 10 == 1920


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

def _random_checkpoint(rng):
    tensors = {
        "a.w": rng.standard_normal((3, 4)).astype(np.float32),
        "a.b": rng.standard_normal(3).astype(np.float32),
        "b.w": rng.standard_normal((2, 3, 5)).astype(np.float32),
    }
    return Checkpoint(tensors=tensors, frozen_names={"a.w"},
                      config={"encoder": {"channels": 16}})


def test_checkpoint_round_trip(tmp_path):
    ckpt = _random_checkpoint(np.random.default_rng(0))
    save_checkpoint(ckpt, tmp_path / "ck")
    back = load_checkpoint(tmp_path / "ck")
    assert set(back.tensors) == set(ckpt.tensors)
    for name in ckpt.tensors:
        assert np.array_equal(back.tensors[name], ckpt.tensors[name])
    assert back.frozen_names == {"a.w"}
    assert back.config == ckpt.config


def test_checkpoint_truncated_blob_names_tensor(tmp_path):
    ckpt = _random_checkpoint(np.random.default_rng(1))
    save_checkpoint(ckpt, tmp_path / "ck")
    blob = (tmp_path / "ck" / "weights.bin").read_bytes()
    (tmp_path / "ck" / "weights.bin").write_bytes(blob[:10 * 4])
    with pytest.raises(CheckpointError, match="truncated blob.*'a.w'|truncated blob.*'a.b'"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_huge_manifest_shape_is_a_truncated_blob(tmp_path):
    """A size is the exact product of the shape: [2**62, 4, 1] is 2**64
    elements, which int64 arithmetic wrapped to 0 and a bare ValueError
    from ``reshape``."""
    ckpt = _random_checkpoint(np.random.default_rng(4))
    save_checkpoint(ckpt, tmp_path / "ck")
    manifest = tmp_path / "ck" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["tensors"][0]["shape"] = [2 ** 62, 4, 1]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=rf"truncated blob.*'a.b' needs elements "
                                              rf"\[0, {2 ** 64}\)"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_size_mismatch(tmp_path):
    ckpt = _random_checkpoint(np.random.default_rng(2))
    save_checkpoint(ckpt, tmp_path / "ck")
    blob = (tmp_path / "ck" / "weights.bin").read_bytes()
    (tmp_path / "ck" / "weights.bin").write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError, match="size mismatch"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_version_mismatch(tmp_path):
    ckpt = _random_checkpoint(np.random.default_rng(3))
    save_checkpoint(ckpt, tmp_path / "ck")
    manifest = (tmp_path / "ck" / "manifest.json").read_text()
    (tmp_path / "ck" / "manifest.json").write_text(
        manifest.replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(CheckpointError, match="version mismatch"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    ckpt = _random_checkpoint(np.random.default_rng(4))
    save_checkpoint(ckpt, tmp_path / "a")
    save_checkpoint(ckpt, tmp_path / "b")
    assert (tmp_path / "a" / "weights.bin").read_bytes() == \
        (tmp_path / "b" / "weights.bin").read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == \
        (tmp_path / "b" / "manifest.json").read_bytes()


def test_checkpoint_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A save that fails at the weights write leaves the previous checkpoint
    loadable with its old bytes, and no temporary directory behind."""
    path = tmp_path / "ck"
    old = _random_checkpoint(np.random.default_rng(5))
    save_checkpoint(old, path)
    files = ("manifest.json", "weights.bin")
    before = {name: (path / name).read_bytes() for name in files}
    new = _random_checkpoint(np.random.default_rng(6))  # same shapes and sizes
    new.config = {"encoder": {"channels": 32}}

    def failing_open(file, mode="r", *args, **kwargs):
        if os.path.basename(file) == "weights.bin":
            raise OSError("disk full")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(new, path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
    assert {name: (path / name).read_bytes() for name in files} == before
    back = load_checkpoint(path)
    assert back.config == old.config
    for name in old.tensors:
        assert np.array_equal(back.tensors[name], old.tensors[name])
    save_checkpoint(new, path)
    assert load_checkpoint(path).config == new.config
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
    assert sorted(p.name for p in path.iterdir()) == sorted(files)


def test_class_weights_antipodal_init():
    params = {}
    ClassWeights("h.cls", 2, 16).init(params, np.random.default_rng(0))
    w = params["h.cls.w"]
    np.testing.assert_allclose(w[1], -w[0])
