"""AAM-softmax, schedule, optimizer, and training-loop contracts."""

import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_grads_close
from tcssd import checkpoint, training
from tcssd.analysis import SimConfig, simulate_trajectories
from tcssd.checkpoint import load_checkpoint
from tcssd.cm_distribution import Cm2Net
from tcssd.cm_temporal import Cm1Net
from tcssd.config import toy_config
from tcssd.encoder import FrontendNet
from tcssd.errors import DataError, TrainingError
from tcssd.frontend import N_MELS, FeatureMap
from tcssd.layers import Gru, init_layers, tensor_names
from tcssd.training import (CM_IDS, Adam, AamConfig, LABEL_BONAFIDE, LABEL_SPOOF,
                            TrainConfig, TrainItem, aam_softmax_loss,
                            build_checkpoint, checkpoint_configs, lr_schedule,
                            system_net, train)


def plain_softmax_ce(emb, labels, w, scale=1.0):
    """Independent cross-entropy on scaled cosine logits (no margin)."""
    ehat = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    what = w / np.linalg.norm(w, axis=1, keepdims=True)
    logits = scale * (ehat @ what.T)
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


# ---------------------------------------------------------------------------
# aam_softmax_loss
# ---------------------------------------------------------------------------

def test_aam_margin_free_equals_plain_softmax():
    rng = np.random.default_rng(0)
    cfg = AamConfig(margin=0.0, scale=1.0)
    for _ in range(100):
        b = int(rng.integers(2, 12))
        emb = rng.standard_normal((b, 8))
        w = rng.standard_normal((2, 8))
        y = rng.integers(0, 2, size=b)
        loss, _, _ = aam_softmax_loss(emb, y, w, cfg)
        assert abs(loss - plain_softmax_ce(emb, y, w)) < 1e-9


def test_aam_closed_form_single_sample():
    # cos(theta_y) = 1, cos(theta_other) = 0, m = 0.4, s = 30
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    emb = np.array([[2.0, 0.0]])  # aligned with class 0 after normalization
    loss, _, _ = aam_softmax_loss(emb, np.array([0]), w, AamConfig())
    want = float(np.log1p(np.exp(-30.0 * np.cos(0.4))))
    assert abs(loss - want) < 1e-9
    assert abs(want - 9.9e-13) < 1e-13


def test_aam_loss_nonnegative():
    rng = np.random.default_rng(1)
    cfg = AamConfig()
    for _ in range(50):
        emb = rng.standard_normal((4, 6))
        w = rng.standard_normal((2, 6))
        y = rng.integers(0, 2, size=4)
        loss, _, _ = aam_softmax_loss(emb, y, w, cfg)
        assert loss >= 0.0


def test_aam_margin_monotone_in_stable_branch():
    rng = np.random.default_rng(2)
    for _ in range(50):
        emb = rng.standard_normal((6, 8))
        w = rng.standard_normal((2, 8))
        y = rng.integers(0, 2, size=6)
        # keep every target cosine in the stable branch of the larger margin
        ehat = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        what = w / np.linalg.norm(w, axis=1, keepdims=True)
        cos_y = (ehat @ what.T)[np.arange(6), y]
        if np.any(cos_y <= -np.cos(0.4)):
            continue
        l_m, _, _ = aam_softmax_loss(emb, y, w, AamConfig(margin=0.4, scale=30.0))
        l_0, _, _ = aam_softmax_loss(emb, y, w, AamConfig(margin=0.0, scale=30.0))
        assert l_m >= l_0 - 1e-12


def test_aam_zero_norm_embedding_rejected():
    w = np.eye(2, 4)
    emb = np.zeros((1, 4))
    with pytest.raises(DataError, match="zero-norm"):
        aam_softmax_loss(emb, np.array([0]), w, AamConfig())


def test_aam_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    cfg = AamConfig()
    params = {"emb": rng.standard_normal((4, 8)),
              "w": rng.standard_normal((2, 8))}
    y = np.array([0, 1, 1, 0])

    # keep the check away from the |cos|=1 poles and the branch threshold
    def regenerate_ok():
        ehat = params["emb"] / np.linalg.norm(params["emb"], axis=1, keepdims=True)
        what = params["w"] / np.linalg.norm(params["w"], axis=1, keepdims=True)
        cos_y = (ehat @ what.T)[np.arange(4), y]
        return np.all(np.abs(cos_y) < 0.95) and np.all(
            np.abs(cos_y + np.cos(cfg.margin)) > 0.05)

    assert regenerate_ok()

    def loss_fn():
        loss, _, _ = aam_softmax_loss(params["emb"], y, params["w"], cfg)
        return loss

    loss, demb, dw = aam_softmax_loss(params["emb"], y, params["w"], cfg)
    assert_grads_close(loss_fn, params, {"emb": demb, "w": dw},
                       ["emb", "w"], rtol=1e-4)


# ---------------------------------------------------------------------------
# lr_schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_peak_at_warmup_end():
    cfg = TrainConfig()
    assert abs(lr_schedule(1000, cfg) - 3e-4) < 1e-18


def test_lr_schedule_linear_quarter():
    assert abs(lr_schedule(250, TrainConfig()) - 7.5e-5) < 1e-18


def test_lr_schedule_inverse_sqrt():
    want = 3e-4 * np.sqrt(1000 / 4000)
    assert abs(lr_schedule(4000, TrainConfig()) - want) < 1e-18
    assert abs(want - 1.5e-4) < 1e-18


def test_lr_schedule_continuous_at_warmup():
    cfg = TrainConfig(warmup_steps=77)
    lhs = lr_schedule(77, cfg)
    assert lhs == cfg.base_lr
    # one step either side stays close
    assert abs(lr_schedule(76, cfg) - lhs) < cfg.base_lr * 0.02
    assert abs(lr_schedule(78, cfg) - lhs) < cfg.base_lr * 0.02


def test_lr_schedule_rejects_step_zero():
    with pytest.raises(DataError, match="step"):
        lr_schedule(0, TrainConfig())


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    cfg = TrainConfig()
    params = {"x": np.array([1.0, -2.0, 3.0], dtype=np.float32)}
    before = params["x"].copy()
    opt = Adam(cfg)
    for _ in range(3):
        opt.step(params, {"x": np.zeros(3, dtype=np.float32)}, 0.1)
    np.testing.assert_array_equal(params["x"], before)


def test_adam_skips_missing_grads():
    cfg = TrainConfig()
    params = {"x": np.ones(2, dtype=np.float32), "y": np.ones(2, dtype=np.float32)}
    opt = Adam(cfg)
    opt.step(params, {"x": np.ones(2, dtype=np.float32)}, 0.1)
    assert np.all(params["y"] == 1.0)
    assert np.all(params["x"] != 1.0)


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------

def sim_items(n_per_class=8, seed=0, dim=24, n_frames=40):
    data = simulate_trajectories(SimConfig(dim=dim, n_frames=n_frames), n_per_class, seed)
    return [TrainItem(utt_id=utt,
                      label=LABEL_BONAFIDE if k == "bonafide" else LABEL_SPOOF,
                      features=f)
            for utt, f, k in data]


def tiny_run_cfg(max_steps=10, **over):
    cfg = toy_config()
    fields = dict(batch_size=8, max_steps=max_steps, crop_min_s=0.2,
                  crop_max_s=0.4)
    fields.update(over)
    return replace(cfg, train=replace(cfg.train, **fields))


def test_train_overfits_two_samples():
    cfg = tiny_run_cfg(max_steps=50)
    items = sim_items(n_per_class=1, seed=1)
    ckpt, log = train("cm1", items, cfg)
    assert log[-1].loss < log[0].loss


def test_train_deterministic_given_seed():
    cfg = tiny_run_cfg(max_steps=8)
    items = sim_items(n_per_class=4, seed=2)
    ck_a, log_a = train("cm1", items, cfg)
    ck_b, log_b = train("cm1", items, cfg)
    assert [e.loss for e in log_a] == [e.loss for e in log_b]
    for name in ck_a.tensors:
        assert ck_a.tensors[name].tobytes() == ck_b.tensors[name].tobytes()


def test_train_cm2_freezes_frontend():
    cfg = tiny_run_cfg(max_steps=5)
    items = sim_items(n_per_class=4, seed=3)
    init = build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=cfg.seed)
    before = {k: v.copy() for k, v in init.tensors.items()}
    ckpt, _ = train("cm2", items, cfg, init_ckpt=init)
    for name in ckpt.frozen_names:
        assert name.startswith("frontend.")
        assert np.array_equal(ckpt.tensors[name], before[name]), name
    # the trained head moved
    assert not np.array_equal(ckpt.tensors["cm2.cls.w"], before["cm2.cls.w"])
    assert not np.array_equal(ckpt.tensors["cm2.pool.att.fc1.w"],
                              before["cm2.pool.att.fc1.w"])


def three_system_build(enc_cfg, cm1_cfg, seed, init):
    """The oracle: every system drawn at once, as one checkpoint held all
    three.  The frontend, then CM1's head; ``init``'s tensors take
    precedence, and each CM2 tensor it lacks copies its frontend twin."""
    rng = np.random.default_rng(seed)
    params = init_layers(FrontendNet(enc_cfg).layers(), rng)
    init_layers(Cm1Net(cm1_cfg, enc_cfg).layers(), rng, params)
    params.update({name: tensor.copy() for name, tensor in init.items()})
    for name in tensor_names(Cm2Net(enc_cfg).layers()):
        if name not in init:
            params[name] = params["frontend." + name.removeprefix("cm2.")].copy()
    return params


@pytest.mark.parametrize("cm_id", CM_IDS)
def test_build_checkpoint_keeps_the_three_system_builds_bits(cm_id, monkeypatch):
    """A run's checkpoint holds exactly the system's own tensors and the
    frontend's, with the frontend frozen unless it is the system, and each
    tensor has the three-system build's bits, fresh and from a cm1 init
    (whose head a cm2 or toy-frontend run neither checks nor carries).
    Only a cm1 build draws CM1's head."""
    cfg = tiny_run_cfg()
    frontend = set(tensor_names(FrontendNet(cfg.encoder).layers()))
    own = set(tensor_names(system_net(cm_id, cfg.encoder, cfg.cm1).layers()))
    inits = (None, build_checkpoint("cm1", cfg.encoder, cfg.cm1, seed=6))
    oracles = [three_system_build(cfg.encoder, cfg.cm1, 5, {} if i is None else i.tensors)
               for i in inits]
    gru_inits, gru_init = [], Gru.init

    def counting_init(self, *args):
        gru_inits.append(self.name)
        return gru_init(self, *args)

    monkeypatch.setattr(Gru, "init", counting_init)
    for init, oracle in zip(inits, oracles):
        ckpt = build_checkpoint(cm_id, cfg.encoder, cfg.cm1, seed=5, init_from=init)
        assert set(ckpt.tensors) == own | frontend
        assert ckpt.frozen_names == frontend - own
        for name, tensor in ckpt.tensors.items():
            assert tensor.dtype == oracle[name].dtype, name
            assert tensor.tobytes() == oracle[name].tobytes(), name
    assert gru_inits == (["cm1.gru"] * 2 if cm_id == "cm1" else [])


def test_init_tensor_of_another_shape_is_named():
    """A tensor the run keeps must have the shape the run's would."""
    cfg = tiny_run_cfg()
    init = build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=0)
    want = init.tensors["cm2.proj.w"].shape
    init.tensors["cm2.proj.w"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(DataError) as info:
        build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=0, init_from=init)
    assert str(info.value) == (f"init checkpoint tensor cm2.proj.w has shape (3, 3), "
                               f"expected {want}")


def test_train_single_class_rejected():
    cfg = tiny_run_cfg()
    items = [it for it in sim_items(4, seed=4) if it.label == LABEL_BONAFIDE]
    with pytest.raises(DataError, match="both classes"):
        train("cm1", items, cfg)


def test_train_empty_manifest_rejected():
    cfg = tiny_run_cfg()
    with pytest.raises(DataError, match="empty"):
        train("cm1", [], cfg)


def test_train_unknown_system_rejected():
    cfg = tiny_run_cfg()
    with pytest.raises(DataError, match="unknown system"):
        train("cm3", sim_items(2), cfg)


def test_train_nan_loss_aborts():
    cfg = tiny_run_cfg(max_steps=5)
    items = sim_items(n_per_class=4, seed=5)
    init = build_checkpoint("cm1", cfg.encoder, cfg.cm1, seed=cfg.seed)
    init.tensors["cm1.fc1.w"][0, 0] = np.nan
    with pytest.raises(TrainingError, match="non-finite loss"):
        train("cm1", items, cfg, init_ckpt=init)


def test_train_writes_log_and_epoch_checkpoints(tmp_path):
    cfg = tiny_run_cfg(max_steps=4, batch_size=4)
    items = sim_items(n_per_class=4, seed=6)  # 8 items, 2 steps/epoch
    out = tmp_path / "run"
    ckpt, log = train("cm1", items, cfg, out_dir=str(out))
    assert (out / "init").is_dir()
    assert (out / "final").is_dir()
    assert (out / "epoch_0001").is_dir() and (out / "epoch_0002").is_dir()
    lines = (out / "train.log").read_text().strip().split("\n")
    assert len(lines) == 4
    step, lr, loss = lines[0].split("\t")
    assert int(step) == 1
    float(lr), float(loss)


def test_train_frontend_toy_needs_fbank():
    cfg = tiny_run_cfg()
    with pytest.raises(DataError, match="fbank"):
        train("frontend-toy", sim_items(2, seed=7), cfg)


def test_train_frontend_toy_on_fbank_kind():
    cfg = tiny_run_cfg(max_steps=4, batch_size=4)
    # 80-channel simulated maps play the role of FBanks at desk scale
    items = sim_items(n_per_class=3, seed=8, dim=80, n_frames=30)
    ckpt, log = train("frontend-toy", items, cfg)
    assert ckpt.frozen_names == set()
    assert len(log) == 4
    assert np.isfinite(log[-1].loss)


def test_train_cm2_on_fbank_kind_updates_mfa_conv():
    cfg = tiny_run_cfg(max_steps=3, batch_size=4)
    items = sim_items(n_per_class=3, seed=9, dim=80, n_frames=30)
    init = build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=cfg.seed)
    before = init.tensors["cm2.mfa.conv.w"].copy()
    ckpt, _ = train("cm2", items, cfg, init_ckpt=init)
    assert not np.array_equal(ckpt.tensors["cm2.mfa.conv.w"], before)
    for name in ckpt.frozen_names:
        assert np.array_equal(ckpt.tensors[name], init.tensors[name])


def unequal_fbank_items(n_per_class=3, seed=9):
    """80-channel simulated maps standing in for FBanks, each of its own
    length (25, 27, ... frames)."""
    items = sim_items(n_per_class=n_per_class, seed=seed, dim=80, n_frames=40)
    for k, it in enumerate(items):
        it.features = FeatureMap(it.features.values[:25 + 2 * k], it.features.frame_hop)
    return items


def record_concat_shapes(monkeypatch):
    """The input shape of every ``FrontendNet.forward_concat`` call, in order."""
    shapes = []
    concat = FrontendNet.forward_concat

    def recording(self, params, x):
        shapes.append(x.shape)
        return concat(self, params, x)

    monkeypatch.setattr(FrontendNet, "forward_concat", recording)
    return shapes


def record_crop_lengths(monkeypatch):
    """The frame count of every map ``train`` crops, in order."""
    lengths = []
    crop = training.random_crop

    def recording(f, *args):
        lengths.append(f.values.shape[0])
        return crop(f, *args)

    monkeypatch.setattr(training, "random_crop", recording)
    return lengths


@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("cm_id", ["cm1", "cm2"])
def test_cm_training_encodes_each_drawn_fbank_utterance_once(cm_id, steps, monkeypatch):
    """A countermeasure's concat is frozen: it runs once per utterance the
    sampler draws, B=1 on the whole map, before its first crop; utterances
    never drawn are never encoded."""
    shapes = record_concat_shapes(monkeypatch)
    lengths = record_crop_lengths(monkeypatch)
    items = unequal_fbank_items()  # lengths all differ, so a length names an item
    train(cm_id, items, tiny_run_cfg(max_steps=steps, batch_size=4))
    assert len(lengths) == 4 * steps
    drawn = list(dict.fromkeys(lengths))
    assert shapes == [(1, t, N_MELS) for t in drawn]
    assert len(drawn) == (4 if steps == 1 else len(items))


def test_batch_draw_order_is_pinned(monkeypatch):
    """Each batch is bonafide then spoof, each class through a fresh
    permutation per pass.  Both first permutations come before step 1,
    bonafide first; a class's next one is drawn when it runs out, mid-batch
    here (3 bonafide and 5 spoof against 4 of each per step)."""
    lengths = record_crop_lengths(monkeypatch)
    items = sim_items(n_per_class=5, seed=11)
    items = items[:3] + items[5:]
    for k, it in enumerate(items):  # tap-point maps of 25 + k frames: a length names an item
        it.features = FeatureMap(it.features.values[:25 + k], it.features.frame_hop)
    train("cm2", items, tiny_run_cfg(max_steps=4, batch_size=8))
    assert [t - 25 for t in lengths] == [2, 0, 1, 1, 5, 7, 6, 4,
                                         2, 0, 2, 1, 3, 5, 4, 6,
                                         0, 0, 1, 2, 7, 3, 6, 5,
                                         2, 0, 1, 0, 4, 7, 3, 3]


def test_encodings_past_the_byte_bound_are_made_again_to_the_same_bits(monkeypatch):
    """With no room to hold an encoding, every draw encodes its utterance
    anew, and training ends on the same bits."""
    items, cfg = unequal_fbank_items(), tiny_run_cfg(max_steps=3, batch_size=4)
    held, _ = train("cm2", items, cfg)
    shapes = record_concat_shapes(monkeypatch)
    monkeypatch.setattr(training, "ENCODED_BYTES_MAX", 0)
    bounded, _ = train("cm2", items, cfg)
    assert len(shapes) == 3 * 4
    assert held.tensors.keys() == bounded.tensors.keys()
    for name in held.tensors:
        assert held.tensors[name].tobytes() == bounded.tensors[name].tobytes(), name


def test_frontend_toy_runs_its_concat_on_every_step(monkeypatch):
    """The toy frontend trains its concat, so each step runs it on the batch."""
    shapes = record_concat_shapes(monkeypatch)
    train("frontend-toy", unequal_fbank_items(), tiny_run_cfg(max_steps=3, batch_size=4))
    assert [(b, m) for b, _, m in shapes] == [(4, N_MELS)] * 3


@pytest.mark.parametrize("cm_id, width", [("cm1", "mfa_dim"), ("cm2", "concat_width")])
def test_embed_of_frozen_encoding_equals_embed_of_fbank(cm_id, width):
    """On a whole, uncropped map, a countermeasure embeds the encoding that
    training crops (CM1's at the tap, CM2's at the concat) to the same bits
    as the FBank map that scoring reads."""
    cfg = tiny_run_cfg()
    net = system_net(cm_id, cfg.encoder, cfg.cm1)
    params = build_checkpoint(cm_id, cfg.encoder, cfg.cm1, seed=3).tensors
    if cm_id == "cm2":  # CM2's own conv, apart from its frontend twin
        params["cm2.mfa.conv.w"] = params["cm2.mfa.conv.w"] * np.float32(1.5)
    items = unequal_fbank_items()
    encoded = training._FrozenEncodings(cm_id, cfg.encoder, params,
                                        [it.features for it in items])
    for k, it in enumerate(items):
        x = it.features.values[None].astype(np.float32)
        enc = encoded[k].values[None]
        assert enc.shape == (1, x.shape[1], getattr(cfg.encoder, width))
        assert net.embed(params, enc)[0].tobytes() == net.embed(params, x)[0].tobytes()


def record_batches(monkeypatch):
    """Per step, the array the net's ``embed`` receives and its oracle: the
    step's crops (after SpecAugment, when on) wrap-padded to the longest,
    stacked and cast to float32, as separate copies."""
    crops, batches = [], []
    crop, augment, make_net = training.random_crop, training.spec_augment, training.system_net

    def cropping(*args):
        out = crop(*args)
        crops.append(out.values)
        return out

    def augmenting(*args):
        out = augment(*args)
        crops[-1] = out.values
        return out

    def making(*args):
        net = make_net(*args)
        embed = net.embed

        def embedding(params, x):
            max_t = max(v.shape[0] for v in crops)
            want = np.stack([v[np.arange(max_t) % len(v)] for v in crops]).astype(np.float32)
            batches.append((x.copy(), want))
            crops.clear()
            return embed(params, x)

        net.embed = embedding
        return net

    monkeypatch.setattr(training, "random_crop", cropping)
    monkeypatch.setattr(training, "spec_augment", augmenting)
    monkeypatch.setattr(training, "system_net", making)
    return batches


@pytest.mark.parametrize("cm_id, lane", [
    ("cm1", "tap"), ("cm2", "tap"), ("cm1", "fbank"), ("cm2", "fbank"),
    ("frontend-toy", "fbank"),
])
def test_batch_array_equals_stacked_wrap_padded_crops(cm_id, lane, monkeypatch):
    """Each step's batch holds the bits of its crops wrap-padded to the
    longest, stacked and cast to float32, on maps of unequal lengths with
    one shorter than the crop floor (20 frames), which wraps."""
    if lane == "tap":
        items = sim_items(n_per_class=3, seed=12)
        for k, it in enumerate(items):
            it.features = FeatureMap(it.features.values[:25 + 3 * k], it.features.frame_hop)
    else:
        items = unequal_fbank_items()
    items[0].features = FeatureMap(items[0].features.values[:12], items[0].features.frame_hop)
    batches = record_batches(monkeypatch)
    train(cm_id, items, tiny_run_cfg(max_steps=4, batch_size=4,
                                     augment=cm_id == "frontend-toy"))
    assert len(batches) == 4
    for x, want in batches:
        assert x.shape == want.shape and x.dtype == want.dtype
        assert x.tobytes() == want.tobytes()


def test_batch_assembly_holds_one_batch_copy(monkeypatch):
    """From a step's first crop to its ``embed``, traced memory peaks under
    1.5 times the batch's bytes: the crops are views written straight into
    one float32 array, not copied, stacked and cast (three batch copies).
    CM2 crops concat-width encodings; step 1 encodes all 8 utterances, so
    step 2 is measured."""
    items = sim_items(n_per_class=4, seed=13, dim=N_MELS, n_frames=400)
    for k, it in enumerate(items):
        it.features = FeatureMap(it.features.values[:300 + 10 * k], it.features.frame_hop)
    crop, make_net, seen = training.random_crop, training.system_net, {"steps": 0}

    def cropping(*args):
        if seen["steps"] == 1 and "base" not in seen:
            tracemalloc.reset_peak()
            seen["base"] = tracemalloc.get_traced_memory()[0]
        return crop(*args)

    def making(*args):
        net = make_net(*args)
        embed = net.embed

        def embedding(params, x):
            seen["steps"] += 1
            if seen["steps"] == 1:
                return embed(params, x)
            seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["base"]
            seen["nbytes"] = x.nbytes
            raise StopIteration

        net.embed = embedding
        return net

    monkeypatch.setattr(training, "random_crop", cropping)
    monkeypatch.setattr(training, "system_net", making)
    tracemalloc.start()
    try:
        with pytest.raises(StopIteration):
            train("cm2", items, tiny_run_cfg(max_steps=2, batch_size=8, crop_min_s=2.0,
                                             crop_max_s=4.0))
    finally:
        tracemalloc.stop()
    assert seen["peak"] < 1.5 * seen["nbytes"], (seen["peak"], seen["nbytes"])


def test_crops_of_encodings_not_held_free_them(monkeypatch):
    """Past ``ENCODED_BYTES_MAX`` no encoding is held, and each crop of one
    is copied, so the encoding is freed before the next is made.  From
    step 2's first encoding to its ``embed``, traced memory peaks under
    the largest peak of one encoding plus 1.5 times the batch's bytes (the
    crops), not with the step's whole encodings alive (8 x 0.38 MB here)."""
    monkeypatch.setattr(training, "ENCODED_BYTES_MAX", 0)
    items = sim_items(n_per_class=4, seed=14, dim=N_MELS, n_frames=2000)
    getitem, make_net = training._FrozenEncodings.__getitem__, training.system_net
    seen = {"steps": 0, "encode": 0, "peak": 0}

    def encoding(self, i):
        if seen["steps"] == 1 and "base" not in seen:
            tracemalloc.reset_peak()
            seen["base"] = tracemalloc.get_traced_memory()[0]
        current, peak = tracemalloc.get_traced_memory()
        seen["peak"] = max(seen["peak"], peak)
        tracemalloc.reset_peak()
        m = getitem(self, i)
        seen["encode"] = max(seen["encode"], tracemalloc.get_traced_memory()[1] - current)
        return m

    def making(*args):
        net = make_net(*args)
        embed = net.embed

        def embedding(params, x):
            seen["steps"] += 1
            if seen["steps"] == 1:
                return embed(params, x)
            seen["peak"] = max(seen["peak"], tracemalloc.get_traced_memory()[1]) - seen["base"]
            seen["nbytes"] = x.nbytes
            raise StopIteration

        net.embed = embedding
        return net

    monkeypatch.setattr(training._FrozenEncodings, "__getitem__", encoding)
    monkeypatch.setattr(training, "system_net", making)
    tracemalloc.start()
    try:
        with pytest.raises(StopIteration):
            train("cm2", items, tiny_run_cfg(max_steps=2))
    finally:
        tracemalloc.stop()
    assert seen["peak"] < seen["encode"] + 1.5 * seen["nbytes"], seen


def cache_arrays(obj):
    """Every array in a forward cache, through its nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in cache_arrays(item)]
    return []


@pytest.mark.parametrize("cm_id", ["cm1", "cm2"])
def test_a_step_holds_only_its_own_activations(cm_id, monkeypatch):
    """When step k+1's ``embed`` is entered, step k's batch array and every
    array of its forward cache are already freed, so two steps' activations
    are never alive at once."""
    make_net, refs, seen = training.system_net, [], {"checked": 0}

    def making(*args):
        net = make_net(*args)
        embed = net.embed

        def embedding(params, x):
            alive = [r for r in refs if r() is not None]
            assert not alive, f"{len(alive)} of {len(refs)} arrays of the last step alive"
            seen["checked"] += bool(refs)
            emb, cache = embed(params, x)
            refs[:] = [weakref.ref(a) for a in [x, *cache_arrays(cache)]]
            return emb, cache

        net.embed = embedding
        return net

    monkeypatch.setattr(training, "system_net", making)
    train(cm_id, sim_items(n_per_class=4, seed=15), tiny_run_cfg(max_steps=3))
    assert seen["checked"] == 2 and len(refs) > 1


def test_cm1_batch_is_freed_before_backward(monkeypatch):
    """CM1's forward cache holds its differences, not the batch, so ``train``
    frees the batch array before ``backward_embed`` runs."""
    make_net, refs, seen = training.system_net, [], {"checked": 0}

    def making(*args):
        net = make_net(*args)
        embed, backward_embed = net.embed, net.backward_embed

        def embedding(params, x):
            refs[:] = [weakref.ref(x)]
            return embed(params, x)

        def backward(*args):
            assert refs[0]() is None, "the batch array is alive in backward"
            seen["checked"] += 1
            return backward_embed(*args)

        net.embed, net.backward_embed = embedding, backward
        return net

    monkeypatch.setattr(training, "system_net", making)
    train("cm1", sim_items(n_per_class=4, seed=16), tiny_run_cfg(max_steps=2))
    assert seen["checked"] == 2


def test_train_sets_the_heap_policy_once(monkeypatch):
    """Called directly, not through the CLI, ``train`` sets glibc's mmap
    and trim thresholds, each once per process."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(training, "_libc_mallopt", lambda: mallopt)
    training._keep_heap_mapped.cache_clear()
    try:
        items, cfg = sim_items(n_per_class=2, seed=17), tiny_run_cfg(max_steps=1)
        train("cm2", items, cfg)
        train("cm2", items, cfg)
        assert training._keep_heap_mapped() is True
    finally:
        training._keep_heap_mapped.cache_clear()
    assert calls == list(training.HEAP_THRESHOLDS.items())


def test_manifest_rendered_once_per_layout(tmp_path):
    """Checkpoints of cm1, cm2 and cm1 again, each saved twice in turn: every
    manifest is a fresh indented dump's text, and the second save of one
    checkpoint renders nothing."""
    cfg = tiny_run_cfg()
    checkpoint._render_manifest.cache_clear()
    for k, cm_id in enumerate(("cm1", "cm2", "cm1")):
        ckpt = build_checkpoint(cm_id, cfg.encoder, cfg.cm1, seed=k)
        entries, offset = [], 0
        for name in sorted(ckpt.tensors):
            shape = ckpt.tensors[name].shape
            entries.append({"name": name, "shape": list(shape), "offset": offset,
                            "frozen": name in ckpt.frozen_names})
            offset += int(np.prod(shape))
        want = json.dumps({"format_version": checkpoint.FORMAT_VERSION,
                           "config": ckpt.config, "tensors": entries},
                          indent=2, sort_keys=True) + "\n"
        for rep in range(2):
            out = tmp_path / f"{k}_{rep}"
            checkpoint.save_checkpoint(ckpt, out)
            assert (out / checkpoint.MANIFEST_NAME).read_text() == want, (cm_id, rep)
        info = checkpoint._render_manifest.cache_info()
        assert (info.misses, info.hits) == (k + 1, k + 1)


@pytest.fixture(scope="module")
def toy_frontend_final(tmp_path_factory):
    """A trained toy frontend's ``final`` checkpoint, as loaded from disk."""
    cfg = tiny_run_cfg(max_steps=3, batch_size=4)
    out = tmp_path_factory.mktemp("fe")
    train("frontend-toy", sim_items(n_per_class=3, seed=8, dim=80, n_frames=30), cfg,
          out_dir=str(out))
    return load_checkpoint(out / "final")


def test_frontend_toy_checkpoint_holds_only_frontend_tensors(toy_frontend_final, tmp_path):
    """One rule for every system: each checkpoint ``train`` writes holds the
    net's own tensors, plus, for a countermeasure, every ``frontend.*``
    tensor, and exactly those are frozen.  The toy frontend's holds only
    ``frontend.*`` tensors, none frozen; no checkpoint holds another
    system's head."""
    cfg = tiny_run_cfg(max_steps=3, batch_size=4)  # 6 items: 2 steps per epoch
    frontend = set(tensor_names(FrontendNet(cfg.encoder).layers()))
    assert set(toy_frontend_final.tensors) == frontend
    assert all(name.startswith("frontend.") for name in frontend)
    items = sim_items(n_per_class=3, seed=8, dim=80, n_frames=30)
    for cm_id in ("cm1", "cm2", "frontend-toy"):
        out = tmp_path / cm_id
        train(cm_id, items, cfg, out_dir=str(out))
        own = set(tensor_names(system_net(cm_id, cfg.encoder, cfg.cm1).layers()))
        frozen = set() if cm_id == "frontend-toy" else frontend
        saved = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert saved == ["epoch_0001", "final", "init"], cm_id
        for name in saved:
            ckpt = load_checkpoint(out / name)
            assert set(ckpt.tensors) == own | frozen, (cm_id, name)
            assert ckpt.frozen_names == frozen, (cm_id, name)


def test_cm2_from_toy_frontend_starts_at_its_trained_head(toy_frontend_final, tmp_path):
    """``--init-ckpt fe/final``: CM2 is retrained from the pretrained head,
    not from the head the toy frontend was initialised with."""
    cfg = tiny_run_cfg(max_steps=1, batch_size=4)
    items = sim_items(n_per_class=3, seed=9, dim=80, n_frames=30)
    train("cm2", items, cfg, out_dir=str(tmp_path), init_ckpt=toy_frontend_final)
    init = load_checkpoint(tmp_path / "init")
    fresh = build_checkpoint("cm2", cfg.encoder, cfg.cm1, seed=cfg.seed)
    for name in tensor_names(Cm2Net(cfg.encoder).layers()):
        twin = "frontend." + name.removeprefix("cm2.")
        assert np.array_equal(init.tensors[name], toy_frontend_final.tensors[twin]), name
    assert not np.array_equal(init.tensors["cm2.proj.w"], fresh.tensors["cm2.proj.w"])


def test_cm1_from_toy_frontend_starts_at_its_own_seed(toy_frontend_final, tmp_path):
    cfg = replace(tiny_run_cfg(max_steps=1, batch_size=4), seed=4)
    items = sim_items(n_per_class=3, seed=9, dim=80, n_frames=30)
    train("cm1", items, cfg, out_dir=str(tmp_path), init_ckpt=toy_frontend_final)
    init = load_checkpoint(tmp_path / "init")
    own = build_checkpoint("cm1", cfg.encoder, cfg.cm1, seed=4)
    cm1_names = tensor_names(Cm1Net(cfg.cm1, cfg.encoder).layers())
    for name in cm1_names:
        assert np.array_equal(init.tensors[name], own.tensors[name]), name
    for name, tensor in toy_frontend_final.tensors.items():
        assert np.array_equal(init.tensors[name], tensor), name


def test_build_checkpoint_cm2_starts_as_frontend_copy():
    cfg = tiny_run_cfg()
    enc, cm1 = cfg.encoder, cfg.cm1
    ckpt = build_checkpoint("cm2", enc, cm1, seed=3)
    copied = [n for n in ckpt.tensors if n.startswith("cm2.")]
    assert sorted(copied) == sorted(tensor_names(Cm2Net(enc).layers())) == sorted(
        ["cm2.mfa.conv.w", "cm2.mfa.conv.b", "cm2.pool.att.fc1.w",
         "cm2.pool.att.fc1.b", "cm2.pool.att.fc2.w", "cm2.pool.att.fc2.b",
         "cm2.proj.w", "cm2.proj.b", "cm2.cls.w"])
    for name in copied:
        twin = ckpt.tensors["frontend." + name[len("cm2."):]]
        assert ckpt.tensors[name] is not twin
        assert ckpt.tensors[name].tobytes() == twin.tobytes()


@pytest.mark.parametrize("cm_id", CM_IDS)
def test_manifest_records_only_the_configs_its_system_reads(cm_id, tmp_path):
    """Every system reads the encoder config; only a cm1 checkpoint holds
    CM1's head, so only its manifest records CM1's config."""
    cfg = tiny_run_cfg()
    checkpoint.save_checkpoint(build_checkpoint(cm_id, cfg.encoder, cfg.cm1, seed=0),
                               tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert sorted(manifest["config"]) == (["cm1", "encoder"] if cm_id == "cm1"
                                          else ["encoder"])
    assert checkpoint_configs(load_checkpoint(tmp_path / "ck")) == (
        cfg.encoder, cfg.cm1 if cm_id == "cm1" else None)


@pytest.mark.parametrize("cm_id, kind", [
    ("cm1", "fbank"), ("cm1", "speaker"), ("cm2", "fbank"), ("cm2", "speaker"),
    ("frontend-toy", "fbank"), ("cm1", "concat"), ("cm2", "concat"),
])
def test_backward_embed_fills_exactly_own_trainable_grads(cm_id, kind):
    """The net's own tensors get gradients (the class rows get theirs from
    the loss); the frozen frontend of a countermeasure gets none."""
    cfg = tiny_run_cfg()
    enc, cm1 = cfg.encoder, cfg.cm1
    net = system_net(cm_id, enc, cm1)
    params = build_checkpoint(cm_id, enc, cm1, seed=0).tensors
    width = {"fbank": N_MELS, "speaker": enc.mfa_dim, "concat": enc.concat_width}[kind]
    x = np.random.default_rng(0).standard_normal((2, 12, width)).astype(np.float32)
    emb, cache = net.embed(params, x)
    grads = {}
    net.backward_embed(params, cache, np.ones_like(emb), grads)
    want = set(tensor_names(net.layers())) - {f"{net.cls.name}.w"}
    if (cm_id, kind) == ("cm2", "speaker"):  # tap-point maps skip CM2's MFA conv
        want -= {"cm2.mfa.conv.w", "cm2.mfa.conv.b"}
    assert set(grads) == want
    if cm_id != "frontend-toy":
        assert not [n for n in grads if n.startswith("frontend.")]
