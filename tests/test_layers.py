"""Layer primitives: bit-level contracts of the fused GRU hot path, of
the frontend's frame-laid element-wise ops and of the Res2 block and
pooling passes, and direct-formula oracles plus finite-difference
gradients for the frontend's convolution and normalization."""

import tracemalloc

import numpy as np
import pytest

from helpers import assert_grads_close
from tcssd.layers import (AttentiveStatsPool, ChannelNorm, Conv1d, Gru, SEGate, SERes2Block,
                          _time_mean, relu, sigmoid)


def masked_sigmoid(x):
    """Oracle: the stable logistic written with boolean index masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_identical_to_masked_formula(dtype):
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 100.0, -100.0,
               np.finfo(dtype).tiny, -np.finfo(dtype).tiny]
    x = np.concatenate([special, rng.uniform(-100.0, 100.0, 20000),
                        rng.standard_normal(5000)]).astype(dtype)
    with np.errstate(all="ignore"):
        want = masked_sigmoid(x)
        got = sigmoid(x)
    assert got.dtype == dtype
    assert np.array_equal(got, want, equal_nan=True)
    # Signed zeros and infinities compare equal above; compare raw bits too.
    finite = ~np.isnan(want)
    uint = np.uint32 if dtype == np.float32 else np.uint64
    assert np.array_equal(got[finite].view(uint), want[finite].view(uint))


def test_sigmoid_out_argument_written():
    x = np.linspace(-5, 5, 12, dtype=np.float32).reshape(3, 4)
    buf = np.empty_like(x)
    assert sigmoid(x, out=buf) is buf
    assert np.array_equal(buf, masked_sigmoid(x))


def reference_gru_layer(x, w_ih, w_hh, b_ih, b_hh, dh_seq):
    """Oracle: one GRU layer stepped gate by gate, with fresh arrays per step.

    Returns (h_seq, dx).  Same gate convention and operation order as the
    layer documentation, so the fused implementation must match it bit
    for bit in float32.
    """
    hd = w_hh.shape[1]
    b, t, _ = x.shape
    a_ih = x @ w_ih.T + b_ih
    h = np.zeros((b, hd), dtype=x.dtype)
    hp, zs, rs, ns, hs = [], [], [], [], []
    for ti in range(t):
        hp.append(h)
        a_zr = h @ w_hh[:2 * hd].T + b_hh[:2 * hd]
        z = masked_sigmoid(a_ih[:, ti, :hd] + a_zr[:, :hd])
        r = masked_sigmoid(a_ih[:, ti, hd:2 * hd] + a_zr[:, hd:])
        n = np.tanh(a_ih[:, ti, 2 * hd:] + (r * h) @ w_hh[2 * hd:].T + b_hh[2 * hd:])
        h = (1.0 - z) * n + z * h
        for seq, value in ((zs, z), (rs, r), (ns, n), (hs, h)):
            seq.append(value)
    carry = np.zeros((b, hd), dtype=x.dtype)
    da = np.empty((b, t, 3 * hd), dtype=x.dtype)
    for ti in reversed(range(t)):
        dh = dh_seq[:, ti] + carry
        z, r, n, h_prev = zs[ti], rs[ti], ns[ti], hp[ti]
        dz = dh * (h_prev - n)
        dn = dh * (1.0 - z)
        dh_prev = dh * z
        da_n = dn * (1.0 - n * n)
        drh = da_n @ w_hh[2 * hd:]
        da_r = (drh * h_prev) * r * (1.0 - r)
        dh_prev += drh * r
        da_z = dz * z * (1.0 - z)
        dh_prev += da_z @ w_hh[:hd] + da_r @ w_hh[hd:2 * hd]
        da[:, ti] = np.concatenate([da_z, da_r, da_n], axis=1)
        carry = dh_prev
    return np.stack(hs, axis=1), da @ w_ih


@pytest.mark.parametrize("b,t", [(1, 9), (5, 13)])
def test_gru_time_loop_bit_identical_to_reference(b, t):
    gru = Gru("g", 6, 8, n_layers=1, input_gain=5.0, carry_bias=3.0)
    rng = np.random.default_rng(b * 100 + t)
    params = {}
    gru.init(params, rng)
    x = (rng.standard_normal((b, t, 6)) * 0.5).astype(np.float32)
    dh_seq = rng.standard_normal((b, t, 8)).astype(np.float32)
    h_seq, caches = gru.forward(params, x)
    dx = gru.backward(params, caches, dh_seq, {})
    want_h, want_dx = reference_gru_layer(
        x, *(params[f"g.l0.{k}"] for k in ("w_ih", "w_hh", "b_ih", "b_hh")), dh_seq)
    assert np.array_equal(h_seq, want_h)
    assert np.array_equal(dx, want_dx)


# (32, 199) is the toy CM1 width and sequence length the recipe trains on;
# ``last_only`` is CM1's traffic there, a gradient on the last step alone,
# passed both dense and as ``dh_seq[:, -1:]``.
@pytest.mark.parametrize("b,t,i_dim,h_dim,last_only", [
    (1, 9, 6, 8, False), (5, 13, 6, 8, False), (32, 199, 24, 32, False),
    (32, 199, 24, 32, True), (3, 1, 6, 8, False)], ids=[
    "1-9-6-8", "5-13-6-8", "32-199-24-32", "32-199-24-32-last_only", "3-1-6-8"])
def test_gru_two_layers_bit_identical_to_chained_reference(b, t, i_dim, h_dim, last_only):
    gru = Gru("g", i_dim, h_dim, n_layers=2, input_gain=5.0, carry_bias=3.0)
    rng = np.random.default_rng(b * 1000 + t)
    params = {}
    gru.init(params, rng)
    x = (rng.standard_normal((b, t, i_dim)) * 0.5).astype(np.float32)
    dh_seq = rng.standard_normal((b, t, h_dim)).astype(np.float32)
    if last_only:
        dh_seq[:, :-1] = 0.0
    h_seq, caches = gru.forward(params, x)
    dx = gru.backward(params, caches, dh_seq, {})
    p0, p1 = ([params[f"g.l{l}.{k}"] for k in ("w_ih", "w_hh", "b_ih", "b_hh")]
              for l in (0, 1))
    h1, _ = reference_gru_layer(x, *p0, np.zeros((b, t, h_dim), np.float32))
    want_h, dh1 = reference_gru_layer(h1, *p1, dh_seq)
    _, want_dx = reference_gru_layer(x, *p0, dh1)
    assert np.array_equal(h_seq, want_h)
    assert np.array_equal(dx, want_dx)
    if last_only:
        assert gru.backward(params, caches, dh_seq[:, -1:], {}).tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("input_grad", [True, False])
def test_gru_backward_of_the_last_outputs_keeps_the_dense_bits(n_layers, b, input_grad):
    """A ``dh_seq`` over the last T' outputs gives every gradient the bits
    that the dense (B, T, H) one gives with zeros before them: an earlier
    step adds a zero to its carry, as the dense zeros did."""
    t = 13
    gru = Gru("g", 6, 8, n_layers=n_layers, input_gain=5.0, carry_bias=3.0)
    rng = np.random.default_rng(100 * n_layers + b)
    params = {}
    gru.init(params, rng)
    x = (rng.standard_normal((b, t, 6)) * 0.5).astype(np.float32)
    _, caches = gru.forward(params, x)
    for t_last in (1, 4, t):
        dense = np.zeros((b, t, 8), np.float32)
        dense[:, -t_last:] = rng.standard_normal((b, t_last, 8))
        want, got = {}, {}
        want_dx = gru.backward(params, caches, dense, want, input_grad)
        got_dx = gru.backward(params, caches, dense[:, -t_last:].copy(), got, input_grad)
        assert (got_dx is None) == (want_dx is None) == (not input_grad)
        if input_grad:
            assert got_dx.tobytes() == want_dx.tobytes(), t_last
        assert want.keys() == got.keys()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), (t_last, name)


@pytest.mark.parametrize("shape", [(4, 1, 8), (5, 1, 7), (5, 14, 8)],
                         ids=["batch", "width", "too_long"])
def test_gru_backward_refuses_a_dh_seq_that_does_not_fit(shape):
    """A wrong batch, a wrong width or more steps than the forward ran
    are refused, not cut short by the time loop."""
    gru = Gru("g", 6, 8, n_layers=2)
    params = {}
    gru.init(params, np.random.default_rng(0))
    _, caches = gru.forward(params, np.ones((5, 13, 6), np.float32))
    with pytest.raises(ValueError, match=r"does not fit outputs \(5, 13, 8\)"):
        gru.backward(params, caches, np.ones(shape, np.float32), {})


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_gru_backward_without_input_grad_gives_the_same_weight_grads(n_layers):
    """``input_grad=False`` skips only layer 0's input gradient: every weight
    gradient keeps its bits, and nothing is returned.  Neither backward call
    writes into ``h_seq`` or the cache, at B=1 too, where a batch-major view
    of a layer's h_prev is the cached array itself."""
    for b in (1, 5):
        gru = Gru("g", 6, 8, n_layers=n_layers, input_gain=5.0, carry_bias=3.0)
        rng = np.random.default_rng(n_layers + 10 * b)
        params = {}
        gru.init(params, rng)
        x = (rng.standard_normal((b, 13, 6)) * 0.5).astype(np.float32)
        dh_seq = rng.standard_normal((b, 13, 8)).astype(np.float32)
        h_seq, caches = gru.forward(params, x)
        held = [a.tobytes() for a in (h_seq, *(a for c in caches for a in c))]
        full, weights_only = {}, {}
        assert gru.backward(params, caches, dh_seq, full).shape == x.shape
        assert gru.backward(params, caches, dh_seq, weights_only, input_grad=False) is None
        assert [a.tobytes() for a in (h_seq, *(a for c in caches for a in c))] == held
        assert full.keys() == weights_only.keys()
        for name in full:
            assert full[name].tobytes() == weights_only[name].tobytes(), (b, name)


def test_gru_cache_and_backward_peak_in_step_sized_arrays():
    """At the toy CM1 shape, a two-layer forward's cache holds four
    (T, B, H)-sized arrays per layer (h_0..h_T, z and r, n), and the
    forward peaks at most 10.5 such arrays above its entry: a layer's
    input projections wait in its z, r and n slots.  A weight-only
    backward peaks at most 4.5 above its entry: its factors are staged
    in its own gradient buffer, and layer 0's h_prev is written into
    the spent input gradient of layer 1."""
    b, t, i_dim, h_dim = 32, 199, 24, 32
    unit = b * t * h_dim * 4
    gru = Gru("g", i_dim, h_dim, n_layers=2)
    rng = np.random.default_rng(4)
    params = {}
    gru.init(params, rng)
    x = rng.standard_normal((b, t, i_dim)).astype(np.float32)
    dh_seq = rng.standard_normal((b, t, h_dim)).astype(np.float32)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        h_seq, caches = gru.forward(params, x)
        held, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gru.backward(params, caches, dh_seq, {}, input_grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (held - entry) / unit <= 8.1
    assert (forward_peak - entry) / unit <= 10.5
    assert (peak - held) / unit <= 4.5


def test_attentive_pool_backward_peak_in_activation_sized_arrays():
    """At the fbank_cm2 shape (32 crops of 400 frames, mfa_dim 24, att_dim
    8), the pooling backward peaks at most 2.3 (B, T, D)-sized arrays
    above its entry: its input gradient and one temporary for the
    statistics' share of it, with fc2's gradient scaled in place and freed
    once fc1's input gradient is taken."""
    b, t, d = 32, 400, 24
    unit = b * t * d * 4
    pool = AttentiveStatsPool("pool", d, 8)
    rng = np.random.default_rng(5)
    params = {}
    pool.init(params, rng)
    x = rng.standard_normal((b, t, d)).astype(np.float32)
    dy = rng.standard_normal((b, 2 * d)).astype(np.float32)
    _, cache = pool.forward(params, x)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        dx = pool.backward(params, cache, dy, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dx.shape == x.shape
    assert (peak - entry) / unit <= 2.3


def reference_conv(x, w, b, dilation):
    """Oracle: same-padded dilated conv as a direct loop over output frames
    and taps; a tap that falls outside [0, T) reads zeros."""
    bsz, t, _ = x.shape
    kernel = w.shape[2]
    pad = dilation * (kernel - 1) // 2
    y = np.tile(b, (bsz, t, 1))
    for ti in range(t):
        for j in range(kernel):
            src = ti + j * dilation - pad
            if 0 <= src < t:
                y[:, ti] += x[:, src] @ w[:, :, j].T
    return y


# T=1 and T=3 are shorter than the receptive field: at T=3, dilation 4 both
# side taps lie wholly in the padding.
@pytest.mark.parametrize("kernel,dilation,t", [
    (1, 1, 9), (1, 1, 1), (3, 2, 9), (3, 2, 3), (3, 2, 1), (3, 4, 9), (3, 4, 3),
    (3, 4, 1), (5, 1, 9), (5, 1, 3), (5, 1, 1)])
def test_conv1d_matches_direct_loop_and_finite_differences(kernel, dilation, t):
    conv = Conv1d("c", 3, 4, kernel, dilation)
    rng = np.random.default_rng(kernel * 100 + dilation * 10 + t)
    params = {}
    conv.init(params, rng, dtype=np.float64)
    params["c.b"] = rng.standard_normal(4)
    params["x"] = rng.standard_normal((2, t, 3))
    r = rng.standard_normal((2, t, 4))
    y, cache = conv.forward(params, params["x"])
    want = reference_conv(params["x"], params["c.w"], params["c.b"], dilation)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
    grads = {}
    grads["x"] = conv.backward(params, cache, r, grads)

    def loss_fn():
        return float((conv.forward(params, params["x"])[0] * r).sum())

    assert_grads_close(loss_fn, params, grads, ["c.w", "c.b", "x"], rtol=1e-7)


@pytest.mark.parametrize("kernel,dilation,t", [(1, 1, 9), (3, 2, 9), (3, 4, 3), (5, 1, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1d_weight_only_backward_bit_identical(kernel, dilation, t, dtype):
    """Without ``input_grad`` (a frozen input) the weight and bias gradients
    are the bits of the full backward pass, and no input gradient is made."""
    conv = Conv1d("c", 6, 4, kernel, dilation)
    rng = np.random.default_rng(kernel * 100 + dilation * 10 + t)
    params = {}
    conv.init(params, rng, dtype=dtype)
    params["c.b"] = rng.standard_normal(4).astype(dtype)
    _, cache = conv.forward(params, rng.standard_normal((3, t, 6)).astype(dtype))
    dy = rng.standard_normal((3, t, 4)).astype(dtype)
    full, weights_only = {}, {}
    assert conv.backward(params, cache, dy, full).shape == (3, t, 6)
    assert conv.backward(params, cache, dy, weights_only, input_grad=False) is None
    assert sorted(weights_only) == sorted(full) == ["c.b", "c.w"]
    for name in full:
        assert weights_only[name].dtype == full[name].dtype == dtype
        assert weights_only[name].tobytes() == full[name].tobytes(), name


@pytest.mark.parametrize("t", [1, 3, 9])
def test_channel_norm_matches_textbook_formula_and_finite_differences(t):
    norm = ChannelNorm("n", 5)
    rng = np.random.default_rng(t)
    params = {"n.g": rng.standard_normal(5), "n.b": rng.standard_normal(5),
              "x": 2.0 * rng.standard_normal((2, t, 5)) + 1.0}
    x = params["x"]
    mu = x.sum(axis=1, keepdims=True) / t
    var = ((x - mu) ** 2).sum(axis=1, keepdims=True) / t
    want = params["n.g"] * (x - mu) / np.sqrt(var + ChannelNorm.EPS) + params["n.b"]
    y, cache = norm.forward(params, x)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
    r = rng.standard_normal((2, t, 5))
    grads = {}
    grads["x"] = norm.backward(params, cache, r, grads)

    def loss_fn():
        return float((norm.forward(params, params["x"])[0] * r).sum())

    assert_grads_close(loss_fn, params, grads, ["n.g", "n.b", "x"], rtol=1e-6)


# ---------------------------------------------------------------------------
# Frame-laid operands: bit-identical to the plain broadcasts
# ---------------------------------------------------------------------------

def broadcast_conv_forward(conv, params, x):
    """Oracle: Conv1d.forward with the bias broadcast over the frames."""
    w_taps = conv._tap_weights(params)
    bsz, t, _ = x.shape
    x2 = x.reshape(bsz * t, conv.in_ch)
    y = (x2 @ w_taps[conv.kernel // 2].T).reshape(bsz, t, conv.out_ch)
    y += params[f"{conv.name}.b"]
    for j, shift, lo, hi in conv._side_taps(t):
        yj = (x2 @ w_taps[j].T).reshape(bsz, t, conv.out_ch)
        y[:, lo:hi] += yj[:, lo + shift:hi + shift]
    return y


def broadcast_norm_forward(norm, params, x):
    """Oracle: ChannelNorm.forward with (C,) and (B, 1, C) broadcasts."""
    g = params[f"{norm.name}.g"]
    b = params[f"{norm.name}.b"]
    xc = x - _time_mean(x)
    istd = 1.0 / np.sqrt(_time_mean(xc * xc) + np.asarray(norm.EPS, dtype=x.dtype))
    xhat = xc * istd
    return g * xhat + b, (xhat, istd)


def broadcast_norm_backward(norm, params, cache, dy):
    xhat, istd = cache
    dxh = dy * params[f"{norm.name}.g"]
    return istd * (dxh - _time_mean(dxh) - xhat * _time_mean(dxh * xhat))


def broadcast_se_forward(se, params, x):
    s = _time_mean(x)[:, 0]
    z_pre, c1 = se.fc1.forward(params, s)
    g_pre, c2 = se.fc2.forward(params, relu(z_pre))
    g = sigmoid(g_pre)
    return x * g[:, None, :], (x, z_pre, c1, c2, g)


def broadcast_se_backward(se, params, cache, dy):
    x, z_pre, c1, c2, g = cache
    t = x.shape[1]
    dx = dy * g[:, None, :]
    dg = (dy * x).sum(axis=1)
    dz = se.fc2.backward(params, c2, dg * g * (1.0 - g), {})
    ds = se.fc1.backward(params, c1, dz * (z_pre > 0), {})
    dx += ds[:, None, :] / t
    return dx


def list_res2_forward(block, params, x):
    """Oracle: SERes2Block.forward with the group outputs gathered in a
    second list beside the group views."""
    h1, c1 = block.conv1.forward(params, x)
    n1, cn1 = block.norm1.forward(params, h1)
    r1 = relu(n1)
    w = block.width
    groups = [r1[:, :, i * w:(i + 1) * w] for i in range(block.scale)]
    sp = None
    outs = []
    gcaches = []
    for i in range(block.scale - 1):
        sp_in = groups[i] if i == 0 else sp + groups[i]
        h, cc = block.convs[i].forward(params, sp_in)
        hn, cn = block.norms[i].forward(params, h)
        hr = relu(hn)
        gcaches.append((cc, cn, hn))
        sp = hr
        outs.append(sp)
    outs.append(groups[-1])
    cat = np.concatenate(outs, axis=2)
    h3, c3 = block.conv3.forward(params, cat)
    n3, cn3 = block.norm3.forward(params, h3)
    r3 = relu(n3)
    y_se, cse = block.se.forward(params, r3)
    return y_se + x, (c1, cn1, n1, gcaches, c3, cn3, n3, cse)


def list_res2_backward(block, params, cache, dy, grads):
    c1, cn1, n1, gcaches, c3, cn3, n3, cse = cache
    w = block.width
    dr3 = block.se.backward(params, cse, dy, grads)
    dn3 = dr3 * (n3 > 0)
    dh3 = block.norm3.backward(params, cn3, dn3, grads)
    dcat = block.conv3.backward(params, c3, dh3, grads)
    douts = [dcat[:, :, i * w:(i + 1) * w] for i in range(block.scale)]
    dg = [None] * block.scale
    dg[-1] = douts[-1]
    carry = 0.0
    for i in reversed(range(block.scale - 1)):
        d_sp_out = douts[i] + carry
        cc, cn, hn = gcaches[i]
        dhn = d_sp_out * (hn > 0)
        dh = block.norms[i].backward(params, cn, dhn, grads)
        d_sp_in = block.convs[i].backward(params, cc, dh, grads)
        dg[i] = d_sp_in
        carry = d_sp_in if i > 0 else 0.0
    dr1 = np.concatenate(dg, axis=2)
    dn1 = dr1 * (n1 > 0)
    dh1 = block.norm1.backward(params, cn1, dn1, grads)
    return dy + block.conv1.backward(params, c1, dh1, grads)


def copy_pool_backward(pool, params, cache, dy, grads):
    """Oracle: AttentiveStatsPool.backward with dmu copied, then updated."""
    x, a, c1, c2, alpha, mu, var, sigma = cache
    d = pool.in_dim
    dmu = dy[:, :d].copy()
    dsigma = dy[:, d:]
    dvar = dsigma * (0.5 / sigma) * (var > 0)
    dm2 = dvar
    dmu += -2.0 * mu * dvar
    dalpha = np.einsum("bd,btd->bt", dmu, x) + np.einsum("bd,btd->bt", dm2, x * x)
    dx = alpha[:, :, None] * (dmu[:, None, :] + 2.0 * dm2[:, None, :] * x)
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    da = pool.fc2.backward(params, c2, dscores[:, :, None], grads)
    da_pre = da * (1.0 - a * a)
    dx += pool.fc1.backward(params, c1, da_pre, grads)
    return dx


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.uint32 if got.dtype == np.float32 else np.uint64
    assert np.array_equal(got.view(uint), want.view(uint))


FRAME_LAID_CASES = pytest.mark.parametrize("width, b, dtype", [
    (w, b, d) for w in (2, 16) for b in (1, 3) for d in (np.float32, np.float64)])


def _layer_inputs(width, b, dtype, t=37):
    rng = np.random.default_rng(width * 10 + b)
    x = (2.0 * rng.standard_normal((b, t, width)) + 0.5).astype(dtype)
    dy = rng.standard_normal((b, t, width)).astype(dtype)
    return rng, x, dy


@FRAME_LAID_CASES
def test_conv1d_bias_bit_identical_to_broadcast(width, b, dtype):
    """Only the forward's bias add changed layout; backward has no
    broadcast operand."""
    rng, x, _ = _layer_inputs(width, b, dtype)
    conv = Conv1d("c", width, width, 3, 2)
    params = {}
    conv.init(params, rng, dtype)
    params["c.b"] = rng.standard_normal(width).astype(dtype)
    y, _ = conv.forward(params, x)
    assert_same_bits(y, broadcast_conv_forward(conv, params, x))


@FRAME_LAID_CASES
def test_channel_norm_bit_identical_to_broadcast(width, b, dtype):
    rng, x, dy = _layer_inputs(width, b, dtype)
    norm = ChannelNorm("n", width)
    params = {"n.g": rng.standard_normal(width).astype(dtype),
              "n.b": rng.standard_normal(width).astype(dtype)}
    y, cache = norm.forward(params, x)
    want_y, want_cache = broadcast_norm_forward(norm, params, x)
    assert_same_bits(y, want_y)
    assert_same_bits(cache[0], want_cache[0])
    assert cache[1].shape == (b, 1, width)  # the cache keeps istd unexpanded
    assert_same_bits(cache[1], want_cache[1])
    dx = norm.backward(params, cache, dy, {})
    assert_same_bits(dx, broadcast_norm_backward(norm, params, want_cache, dy))


@FRAME_LAID_CASES
def test_se_gate_bit_identical_to_broadcast(width, b, dtype):
    rng, x, dy = _layer_inputs(width, b, dtype)
    se = SEGate("se", width, 4)
    params = {}
    se.init(params, rng, dtype)
    y, cache = se.forward(params, x)
    want_y, want_cache = broadcast_se_forward(se, params, x)
    assert_same_bits(y, want_y)
    assert cache[-1].shape == (b, width)
    dx = se.backward(params, cache, dy, {})
    assert_same_bits(dx, broadcast_se_backward(se, params, want_cache, dy))


def _random_params(layer, rng, dtype):
    return {name: rng.standard_normal(shape).astype(dtype) for name, shape in layer.param_specs()}


def _assert_same_grads(grads, want_grads, layer):
    assert grads.keys() == want_grads.keys() == {name for name, _ in layer.param_specs()}
    for name, want in want_grads.items():
        assert_same_bits(grads[name], want)


@pytest.mark.parametrize("t, dilation", [(37, 2), (3, 4), (1, 3)])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_res2_block_bit_identical_to_list_bookkeeping(dtype, b, t, dilation):
    """At t <= dilation every side tap reads only padding."""
    rng, x, dy = _layer_inputs(16, b, dtype, t)
    block = SERes2Block("blk", 16, kernel=3, dilation=dilation, scale=8, se_bottleneck=4)
    params = _random_params(block, rng, dtype)
    y, cache = block.forward(params, x)
    want_y, want_cache = list_res2_forward(block, params, x)
    assert_same_bits(y, want_y)
    grads, want_grads = {}, {}
    dx = block.backward(params, cache, dy, grads)
    assert_same_bits(dx, list_res2_backward(block, params, want_cache, dy, want_grads))
    _assert_same_grads(grads, want_grads, block)


@pytest.mark.parametrize("t", [37, 3, 1])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attentive_pool_backward_bit_identical_to_copy_then_add(dtype, b, t):
    """At t = 1 every variance is exactly 0, so the clamp zeroes dm2."""
    rng, x, _ = _layer_inputs(16, b, dtype, t)
    pool = AttentiveStatsPool("pool", 16, 4)
    params = _random_params(pool, rng, dtype)
    dy = rng.standard_normal((b, 32)).astype(dtype)
    _, cache = pool.forward(params, x)
    grads, want_grads = {}, {}
    dx = pool.backward(params, cache, dy, grads)
    assert_same_bits(dx, copy_pool_backward(pool, params, cache, dy, want_grads))
    _assert_same_grads(grads, want_grads, pool)
