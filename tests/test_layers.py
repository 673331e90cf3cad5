"""Layer primitives: bit-level contracts of the fused GRU hot path."""

import numpy as np
import pytest

from tcssd.layers import Gru, sigmoid


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
