"""CM2: embedding/scoring contracts and gradient checks."""

import numpy as np

from helpers import assert_grads_close
from tcssd.cm_distribution import Cm2Net, cm2_score, cm2_score_features
from tcssd.cm_temporal import Cm1Config
from tcssd.config import toy_config
from tcssd.encoder import FrontendNet
from tcssd.frontend import N_MELS, FeatureMap
from tcssd.layers import init_layers, tensor_names
from tcssd.training import AamConfig, aam_softmax_loss, build_checkpoint, system_net


def toy_checkpoint(seed=0):
    cfg = toy_config().encoder
    ckpt = build_checkpoint("cm2", cfg, Cm1Config(hidden=8, fc1_out=8, fc2_out=8),
                            seed=seed)
    return cfg, ckpt


def test_cm2_embed_shape_from_fbank():
    cfg, ckpt = toy_checkpoint()
    f = FeatureMap(values=np.random.default_rng(0)
                   .standard_normal((198, 80)).astype(np.float32))
    emb, _ = Cm2Net(cfg).embed(ckpt.tensors, f.values[None])
    assert emb.shape == (1, cfg.embed_dim)


def test_cm2_embed_deterministic():
    cfg, ckpt = toy_checkpoint(1)
    f = FeatureMap(values=np.random.default_rng(1)
                   .standard_normal((50, 80)).astype(np.float32))
    a, _ = Cm2Net(cfg).embed(ckpt.tensors, f.values[None])
    b, _ = Cm2Net(cfg).embed(ckpt.tensors, f.values[None])
    assert np.array_equal(a, b)


def test_cm2_embed_features_shape():
    cfg, ckpt = toy_checkpoint(2)
    s = np.random.default_rng(2).standard_normal((60, cfg.mfa_dim)).astype(np.float32)
    emb, _ = Cm2Net(cfg).embed(ckpt.tensors, s[None])
    assert emb.shape == (1, cfg.embed_dim)


def test_cm2_score_equal_weights_zero():
    cfg, ckpt = toy_checkpoint(3)
    ckpt.tensors["cm2.cls.w"][1] = ckpt.tensors["cm2.cls.w"][0]
    f = FeatureMap(values=np.random.default_rng(3)
                   .standard_normal((40, 80)).astype(np.float32))
    assert cm2_score(f, cfg, ckpt) == 0.0


def test_cm2_score_bounded():
    cfg, ckpt = toy_checkpoint(4)
    rng = np.random.default_rng(4)
    for _ in range(5):
        s = rng.standard_normal((30, cfg.mfa_dim)).astype(np.float32)
        assert -2.0 <= cm2_score_features(s, ckpt.tensors, cfg) <= 2.0


def test_cm2_tail_gradients_match_finite_differences():
    cfg = toy_config().encoder
    net = Cm2Net(cfg)
    params = init_layers([net.pool, net.proj], np.random.default_rng(5), dtype=np.float64)
    rng = np.random.default_rng(6)
    params["cm2.cls.w"] = rng.standard_normal((2, cfg.embed_dim))
    x = rng.standard_normal((3, 7, cfg.mfa_dim))
    y = np.array([0, 1, 0])
    aam = AamConfig()

    def loss_fn():
        emb, _ = net.forward_tail(params, x)
        loss, _, _ = aam_softmax_loss(emb, y, params["cm2.cls.w"], aam)
        return loss

    emb, cache = net.forward_tail(params, x)
    loss, demb, dw = aam_softmax_loss(emb, y, params["cm2.cls.w"], aam)
    grads = {}
    net.backward_tail(params, cache, demb, grads)
    grads["cm2.cls.w"] = dw
    assert_grads_close(loss_fn, params, grads, sorted(grads), rtol=1e-4)


def test_cm2_fbank_lane_gradients_including_mfa_conv():
    """Full audio-lane CM2 loss through ``embed``/``backward_embed``:
    gradients for the MFA conv and tail, none for the frozen concat."""
    cfg = toy_config().encoder
    frontend = FrontendNet(cfg)
    params = init_layers(frontend.layers(), np.random.default_rng(7), dtype=np.float64)
    net = Cm2Net(cfg)
    init_layers(net.layers(), np.random.default_rng(8), params, dtype=np.float64)
    rng = np.random.default_rng(9)
    params["cm2.cls.w"] = rng.standard_normal((2, cfg.embed_dim))
    x = rng.standard_normal((2, 9, N_MELS))
    y = np.array([0, 1])
    aam = AamConfig()
    cat, _ = frontend.forward_concat(params, x)  # frozen: computed once

    def loss_fn():
        pre, _ = net.mfa_conv.forward(params, cat)
        emb, _ = net.forward_tail(params, np.maximum(pre, 0))
        loss, _, _ = aam_softmax_loss(emb, y, params["cm2.cls.w"], aam)
        return loss

    emb, cache = net.embed(params, x)
    loss, demb, dw = aam_softmax_loss(emb, y, params["cm2.cls.w"], aam)
    grads = {}
    net.backward_embed(params, cache, demb, grads)
    grads["cm2.cls.w"] = dw
    names = tensor_names(net.layers())
    assert sorted(names) == sorted(grads)
    assert_grads_close(loss_fn, params, grads, names, rtol=1e-4)


def test_cm2_starts_as_the_frontend_bit_for_bit():
    """``build_checkpoint`` copies the frontend head into ``cm2.*``, and CM2
    runs the frontend's own lane, so it embeds exactly as the frontend on
    FBank and on tap-point maps."""
    cfg, ckpt = toy_checkpoint(10)
    rng = np.random.default_rng(10)
    for kind, width in (("fbank", N_MELS), ("speaker", cfg.mfa_dim)):
        x = rng.standard_normal((3, 40, width)).astype(np.float32)
        cm2, _ = Cm2Net(cfg).embed(ckpt.tensors, x)
        frontend, _ = FrontendNet(cfg).embed(ckpt.tensors, x)
        assert np.array_equal(cm2, frontend)


def test_cm2_fbank_cache_keeps_no_concat_cache():
    # Nothing flows back through a frozen concat. Keeping its activations
    # until backward raised the FBank CM2 lane's peak RSS by 38%. Only the
    # toy frontend's own training backprops through it.
    cfg, ckpt = toy_checkpoint(11)
    cm1_cfg = Cm1Config(hidden=8, fc1_out=8, fc2_out=8)
    x = np.random.default_rng(11).standard_normal((2, 30, N_MELS)).astype(np.float32)
    _, (fcache, _) = Cm2Net(cfg).embed(ckpt.tensors, x)
    concat_cache, _, _ = fcache
    assert concat_cache is None
    for net in (system_net("cm1", cfg, cm1_cfg).frontend, system_net("cm2", cfg, cm1_cfg),
                FrontendNet(cfg)):
        _, (concat_cache, _, _) = net.tap(ckpt.tensors, x)
        assert concat_cache is None
    toy = system_net("frontend-toy", cfg, cm1_cfg)
    _, (fcache, _) = toy.embed(ckpt.tensors, x)
    assert fcache[0] is not None  # frontend-toy training does backprop through it
