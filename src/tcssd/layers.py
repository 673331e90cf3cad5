"""Neural-network layer primitives with explicit forward/backward passes.

All layers operate on numpy arrays and keep their parameters in a flat
``dict[str, np.ndarray]`` keyed by dotted names (``"cm1.fc1.w"``), which is
also the checkpoint tensor namespace.  Every layer implements:

  * ``param_specs()``  -> list of (name, shape) pairs it owns
  * ``init(params, rng)`` -> create parameters (deterministic draw order)
  * ``forward(params, x)`` -> (output, cache)
  * ``backward(params, cache, dy, grads)`` -> dx, accumulating into ``grads``
  * ``flops(n_frames)`` -> multiply-accumulate based FLOP estimate (2 * MACs)

Sequence activations use the (batch, time, channels) layout.  Computations
run in the dtype of the inputs/parameters: float32 for training, float64 in
the finite-difference gradient tests.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) otherwise, with e^-|x| computed once for both branches.
    ``out`` receives the result when given."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def relu(x):
    return np.maximum(x, 0)


def accumulate_grad(grads: dict, name: str, value: np.ndarray) -> None:
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value.copy()


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Linear:
    """Affine map on the last axis: y = x @ w.T + b, w of shape (out, in)."""

    def __init__(self, name: str, in_dim: int, out_dim: int, per_frame: bool = False):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.per_frame = per_frame  # FLOP accounting only

    def param_specs(self):
        return [(f"{self.name}.w", (self.out_dim, self.in_dim)),
                (f"{self.name}.b", (self.out_dim,))]

    def init(self, params, rng, dtype=np.float32):
        params[f"{self.name}.w"] = glorot_uniform(
            rng, (self.out_dim, self.in_dim), self.in_dim, self.out_dim, dtype)
        params[f"{self.name}.b"] = np.zeros(self.out_dim, dtype=dtype)

    def forward(self, params, x):
        w = params[f"{self.name}.w"]
        b = params[f"{self.name}.b"]
        return x @ w.T + b, x

    def backward(self, params, cache, dy, grads):
        x = cache
        w = params[f"{self.name}.w"]
        if x.ndim == 3:
            dw = np.einsum("bto,bti->oi", dy, x)
            db = dy.sum(axis=(0, 1))
        else:
            dw = dy.T @ x
            db = dy.sum(axis=0)
        accumulate_grad(grads, f"{self.name}.w", dw)
        accumulate_grad(grads, f"{self.name}.b", db)
        return dy @ w

    def flops(self, n_frames: int) -> int:
        if n_frames <= 0:
            return 0
        mult = n_frames if self.per_frame else 1
        return 2 * self.in_dim * self.out_dim * mult


class Conv1d:
    """1-D convolution over time with same-padding and optional dilation.

    Weight shape (out_ch, in_ch, kernel); kernel must be odd so that
    same-padding is symmetric and the frame count is preserved.
    """

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: int, dilation: int = 1):
        if kernel % 2 == 0:
            raise ValueError("kernel must be odd for symmetric same-padding")
        self.name = name
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.kernel = kernel
        self.dilation = dilation
        self.pad = dilation * (kernel - 1) // 2

    def param_specs(self):
        return [(f"{self.name}.w", (self.out_ch, self.in_ch, self.kernel)),
                (f"{self.name}.b", (self.out_ch,))]

    def init(self, params, rng, dtype=np.float32):
        fan_in = self.in_ch * self.kernel
        params[f"{self.name}.w"] = glorot_uniform(
            rng, (self.out_ch, self.in_ch, self.kernel), fan_in, self.out_ch, dtype)
        params[f"{self.name}.b"] = np.zeros(self.out_ch, dtype=dtype)

    def _im2col(self, x):
        b, t, _ = x.shape
        if self.pad:
            xp = np.zeros((b, t + 2 * self.pad, self.in_ch), dtype=x.dtype)
            xp[:, self.pad:self.pad + t, :] = x
        else:
            xp = x
        taps = [xp[:, j * self.dilation:j * self.dilation + t, :] for j in range(self.kernel)]
        return np.stack(taps, axis=2)  # (B, T, K, Cin)

    def forward(self, params, x):
        w = params[f"{self.name}.w"]
        b = params[f"{self.name}.b"]
        cols = self._im2col(x)
        bsz, t = x.shape[0], x.shape[1]
        w_flat = w.transpose(0, 2, 1).reshape(self.out_ch, -1)  # (Cout, K*Cin)
        y = cols.reshape(bsz, t, -1) @ w_flat.T + b
        return y, (cols, x.shape)

    def backward(self, params, cache, dy, grads):
        cols, x_shape = cache
        b, t, _ = x_shape
        w = params[f"{self.name}.w"]
        w_flat = w.transpose(0, 2, 1).reshape(self.out_ch, -1)
        cols_flat = cols.reshape(b, t, -1)
        dw_flat = np.einsum("bto,btk->ok", dy, cols_flat)
        dw = dw_flat.reshape(self.out_ch, self.kernel, self.in_ch).transpose(0, 2, 1)
        accumulate_grad(grads, f"{self.name}.w", dw)
        accumulate_grad(grads, f"{self.name}.b", dy.sum(axis=(0, 1)))
        dcols = (dy @ w_flat).reshape(b, t, self.kernel, self.in_ch)
        dxp = np.zeros((b, t + 2 * self.pad, self.in_ch), dtype=dy.dtype)
        for j in range(self.kernel):
            dxp[:, j * self.dilation:j * self.dilation + t, :] += dcols[:, :, j, :]
        return dxp[:, self.pad:self.pad + t, :]

    def flops(self, n_frames: int) -> int:
        if n_frames <= 0:
            return 0
        return 2 * self.in_ch * self.out_ch * self.kernel * n_frames


class ChannelNorm:
    """Per-channel normalization over the time axis of each utterance.

    Carries no running statistics, so a frozen layer is frozen outright:
    nothing about it can drift during downstream training.
    """

    EPS = 1e-5

    def __init__(self, name: str, channels: int):
        self.name = name
        self.channels = channels

    def param_specs(self):
        return [(f"{self.name}.g", (self.channels,)),
                (f"{self.name}.b", (self.channels,))]

    def init(self, params, rng, dtype=np.float32):
        params[f"{self.name}.g"] = np.ones(self.channels, dtype=dtype)
        params[f"{self.name}.b"] = np.zeros(self.channels, dtype=dtype)

    def forward(self, params, x):
        g = params[f"{self.name}.g"]
        b = params[f"{self.name}.b"]
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        istd = 1.0 / np.sqrt(var + np.asarray(self.EPS, dtype=x.dtype))
        xhat = (x - mu) * istd
        return g * xhat + b, (xhat, istd)

    def backward(self, params, cache, dy, grads):
        xhat, istd = cache
        g = params[f"{self.name}.g"]
        accumulate_grad(grads, f"{self.name}.g", (dy * xhat).sum(axis=(0, 1)))
        accumulate_grad(grads, f"{self.name}.b", dy.sum(axis=(0, 1)))
        dxh = dy * g
        return istd * (dxh - dxh.mean(axis=1, keepdims=True)
                       - xhat * (dxh * xhat).mean(axis=1, keepdims=True))

    def flops(self, n_frames: int) -> int:
        return 0


class SEGate:
    """Squeeze-excitation: rescale channels by a gate from the time-mean."""

    def __init__(self, name: str, channels: int, bottleneck: int):
        self.name = name
        self.channels = channels
        self.bottleneck = bottleneck
        self.fc1 = Linear(f"{name}.fc1", channels, bottleneck)
        self.fc2 = Linear(f"{name}.fc2", bottleneck, channels)

    def param_specs(self):
        return self.fc1.param_specs() + self.fc2.param_specs()

    def init(self, params, rng, dtype=np.float32):
        self.fc1.init(params, rng, dtype)
        self.fc2.init(params, rng, dtype)

    def forward(self, params, x):
        s = x.mean(axis=1)
        z_pre, c1 = self.fc1.forward(params, s)
        z = relu(z_pre)
        g_pre, c2 = self.fc2.forward(params, z)
        g = sigmoid(g_pre)
        y = x * g[:, None, :]
        return y, (x, z_pre, c1, c2, g)

    def backward(self, params, cache, dy, grads):
        x, z_pre, c1, c2, g = cache
        t = x.shape[1]
        dx = dy * g[:, None, :]
        dg = (dy * x).sum(axis=1)
        dg_pre = dg * g * (1.0 - g)
        dz = self.fc2.backward(params, c2, dg_pre, grads)
        dz_pre = dz * (z_pre > 0)
        ds = self.fc1.backward(params, c1, dz_pre, grads)
        dx += ds[:, None, :] / t
        return dx

    def flops(self, n_frames: int) -> int:
        if n_frames <= 0:
            return 0
        return self.fc1.flops(1) + self.fc2.flops(1)


class SERes2Block:
    """Dilated Res2-style block with squeeze-excitation and residual add.

    conv1x1 -> norm -> ReLU -> hierarchical grouped dilated convs (each
    conv -> norm -> ReLU) -> conv1x1 -> norm -> ReLU -> SE -> + input.
    Channel count is preserved.  Norm precedes the activation so that the
    SE squeeze (a time-mean) sees a data-dependent, non-zero signal; with
    per-utterance normalization the reverse order would feed SE an exact
    constant.
    """

    def __init__(self, name: str, channels: int, kernel: int, dilation: int,
                 scale: int, se_bottleneck: int):
        if channels % scale != 0:
            raise ValueError("channels must be divisible by the res2 scale")
        self.name = name
        self.channels = channels
        self.scale = scale
        self.width = channels // scale
        self.conv1 = Conv1d(f"{name}.conv1", channels, channels, 1)
        self.norm1 = ChannelNorm(f"{name}.norm1", channels)
        self.convs = [Conv1d(f"{name}.res2.conv{i + 1}", self.width, self.width,
                             kernel, dilation) for i in range(scale - 1)]
        self.norms = [ChannelNorm(f"{name}.res2.norm{i + 1}", self.width)
                      for i in range(scale - 1)]
        self.conv3 = Conv1d(f"{name}.conv3", channels, channels, 1)
        self.norm3 = ChannelNorm(f"{name}.norm3", channels)
        self.se = SEGate(f"{name}.se", channels, se_bottleneck)

    def param_specs(self):
        specs = self.conv1.param_specs() + self.norm1.param_specs()
        for conv, norm in zip(self.convs, self.norms):
            specs += conv.param_specs() + norm.param_specs()
        specs += self.conv3.param_specs() + self.norm3.param_specs()
        specs += self.se.param_specs()
        return specs

    def init(self, params, rng, dtype=np.float32):
        self.conv1.init(params, rng, dtype)
        self.norm1.init(params, rng, dtype)
        for conv, norm in zip(self.convs, self.norms):
            conv.init(params, rng, dtype)
            norm.init(params, rng, dtype)
        self.conv3.init(params, rng, dtype)
        self.norm3.init(params, rng, dtype)
        self.se.init(params, rng, dtype)

    def forward(self, params, x):
        h1, c1 = self.conv1.forward(params, x)
        n1, cn1 = self.norm1.forward(params, h1)
        r1 = relu(n1)
        w = self.width
        groups = [r1[:, :, i * w:(i + 1) * w] for i in range(self.scale)]
        sp = None
        outs = []
        gcaches = []
        for i in range(self.scale - 1):
            sp_in = groups[i] if i == 0 else sp + groups[i]
            h, cc = self.convs[i].forward(params, sp_in)
            hn, cn = self.norms[i].forward(params, h)
            hr = relu(hn)
            gcaches.append((cc, cn, hn))
            sp = hr
            outs.append(sp)
        outs.append(groups[-1])
        cat = np.concatenate(outs, axis=2)
        h3, c3 = self.conv3.forward(params, cat)
        n3, cn3 = self.norm3.forward(params, h3)
        r3 = relu(n3)
        y_se, cse = self.se.forward(params, r3)
        return y_se + x, (c1, cn1, n1, gcaches, c3, cn3, n3, cse)

    def backward(self, params, cache, dy, grads):
        c1, cn1, n1, gcaches, c3, cn3, n3, cse = cache
        w = self.width
        dr3 = self.se.backward(params, cse, dy, grads)
        dn3 = dr3 * (n3 > 0)
        dh3 = self.norm3.backward(params, cn3, dn3, grads)
        dcat = self.conv3.backward(params, c3, dh3, grads)
        douts = [dcat[:, :, i * w:(i + 1) * w] for i in range(self.scale)]
        dg = [None] * self.scale
        dg[-1] = douts[-1]
        carry = 0.0
        for i in reversed(range(self.scale - 1)):
            d_sp_out = douts[i] + carry
            cc, cn, hn = gcaches[i]
            dhn = d_sp_out * (hn > 0)
            dh = self.norms[i].backward(params, cn, dhn, grads)
            d_sp_in = self.convs[i].backward(params, cc, dh, grads)
            dg[i] = d_sp_in
            carry = d_sp_in if i > 0 else 0.0
        dr1 = np.concatenate(dg, axis=2)
        dn1 = dr1 * (n1 > 0)
        dh1 = self.norm1.backward(params, cn1, dn1, grads)
        return dy + self.conv1.backward(params, c1, dh1, grads)

    def flops(self, n_frames: int) -> int:
        total = self.conv1.flops(n_frames) + self.conv3.flops(n_frames)
        for conv in self.convs:
            total += conv.flops(n_frames)
        total += self.se.flops(n_frames)
        return total


class AttentiveStatsPool:
    """Attention-weighted mean/std pooling over frames -> (B, 2*in_dim).

    Attention is a per-frame bottleneck: tanh(fc1) -> fc2 -> softmax over
    time.  The std uses E[x^2] - mu^2 clamped at zero, plus a 1e-8 epsilon
    under the square root for numerical safety.
    """

    VAR_EPS = 1e-8

    def __init__(self, name: str, in_dim: int, att_dim: int):
        self.name = name
        self.in_dim = in_dim
        self.att_dim = att_dim
        self.fc1 = Linear(f"{name}.att.fc1", in_dim, att_dim, per_frame=True)
        self.fc2 = Linear(f"{name}.att.fc2", att_dim, 1, per_frame=True)

    def param_specs(self):
        return self.fc1.param_specs() + self.fc2.param_specs()

    def init(self, params, rng, dtype=np.float32):
        self.fc1.init(params, rng, dtype)
        self.fc2.init(params, rng, dtype)

    def forward(self, params, x):
        a_pre, c1 = self.fc1.forward(params, x)
        a = np.tanh(a_pre)
        scores, c2 = self.fc2.forward(params, a)
        scores = scores[:, :, 0]
        scores = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        alpha = e / e.sum(axis=1, keepdims=True)
        mu = np.einsum("bt,btd->bd", alpha, x)
        m2 = np.einsum("bt,btd->bd", alpha, x * x)
        var = m2 - mu * mu
        varc = np.clip(var, 0.0, None)
        sigma = np.sqrt(varc + np.asarray(self.VAR_EPS, dtype=x.dtype))
        out = np.concatenate([mu, sigma], axis=1)
        return out, (x, a, c1, c2, alpha, mu, var, sigma)

    def backward(self, params, cache, dy, grads):
        x, a, c1, c2, alpha, mu, var, sigma = cache
        d = self.in_dim
        dmu = dy[:, :d].copy()
        dsigma = dy[:, d:]
        dvar = dsigma * (0.5 / sigma) * (var > 0)
        dm2 = dvar
        dmu += -2.0 * mu * dvar
        dalpha = np.einsum("bd,btd->bt", dmu, x) + np.einsum("bd,btd->bt", dm2, x * x)
        dx = alpha[:, :, None] * (dmu[:, None, :] + 2.0 * dm2[:, None, :] * x)
        dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        da = self.fc2.backward(params, c2, dscores[:, :, None], grads)
        da_pre = da * (1.0 - a * a)
        dx += self.fc1.backward(params, c1, da_pre, grads)
        return dx

    def flops(self, n_frames: int) -> int:
        return self.fc1.flops(n_frames) + self.fc2.flops(n_frames)

    def attention_weights(self, params, x):
        """Forward pass returning (mu, sigma, alpha) without the concat."""
        out, cache = self.forward(params, x)
        alpha = cache[4]
        d = self.in_dim
        return out[:, :d], out[:, d:], alpha


class Gru:
    """Stacked gated recurrent layers.

    Gate convention (one auditable choice used consistently by forward,
    backward and parameter/FLOP accounting):

        z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_iz + b_hz)
        r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_ir + b_hr)
        n_t = tanh(W_n x_t + b_in + U_n (r_t * h_{t-1}) + b_hn)
        h_t = (1 - z_t) * n_t + z_t * h_{t-1}

    with h_0 = 0.  Weights are stored stacked by gate: w_ih (3H, I) and
    w_hh (3H, H), row blocks ordered [z, r, n], with separate input and
    hidden bias vectors b_ih, b_hh of length 3H.
    """

    def __init__(self, name: str, input_dim: int, hidden: int, n_layers: int = 2,
                 input_gain: float = 1.0, carry_bias: float = 0.0):
        self.name = name
        self.input_dim = input_dim
        self.hidden = hidden
        self.n_layers = n_layers
        self.input_gain = input_gain
        self.carry_bias = carry_bias

    def _layer_dims(self):
        return [(self.input_dim if l == 0 else self.hidden, self.hidden)
                for l in range(self.n_layers)]

    def param_specs(self):
        specs = []
        for l, (i_dim, h) in enumerate(self._layer_dims()):
            specs += [(f"{self.name}.l{l}.w_ih", (3 * h, i_dim)),
                      (f"{self.name}.l{l}.w_hh", (3 * h, h)),
                      (f"{self.name}.l{l}.b_ih", (3 * h,)),
                      (f"{self.name}.l{l}.b_hh", (3 * h,))]
        return specs

    def init(self, params, rng, dtype=np.float32):
        k = 1.0 / np.sqrt(self.hidden)
        for name, shape in self.param_specs():
            params[name] = rng.uniform(-k, k, size=shape).astype(dtype)
        if self.input_gain != 1.0:
            params[f"{self.name}.l0.w_ih"] *= dtype(self.input_gain)
        if self.carry_bias != 0.0:
            for l in range(self.n_layers):
                params[f"{self.name}.l{l}.b_hh"][:self.hidden] += dtype(self.carry_bias)

    def forward(self, params, x):
        """x: (B, T, input_dim) -> (h_seq of last layer (B, T, H), cache)."""
        caches = []
        inp = x
        for l in range(self.n_layers):
            h_dim = self.hidden
            w_ih = params[f"{self.name}.l{l}.w_ih"]
            w_hh = params[f"{self.name}.l{l}.w_hh"]
            b_ih = params[f"{self.name}.l{l}.b_ih"]
            b_hh = params[f"{self.name}.l{l}.b_hh"]
            b, t, _ = inp.shape
            a_ih = inp @ w_ih.T + b_ih  # (B, T, 3H)
            h = np.zeros((b, h_dim), dtype=inp.dtype)
            h_prev_seq = np.empty((b, t, h_dim), dtype=inp.dtype)
            zr_seq = np.empty((b, t, 2 * h_dim), dtype=inp.dtype)
            z_seq = zr_seq[:, :, :h_dim]
            r_seq = zr_seq[:, :, h_dim:]
            n_seq = np.empty_like(h_prev_seq)
            h_seq = np.empty_like(h_prev_seq)
            u_zr_t = w_hh[:2 * h_dim].T
            u_n_t = w_hh[2 * h_dim:].T
            b_hzr = b_hh[:2 * h_dim]
            b_hn = b_hh[2 * h_dim:]
            a_zr = np.empty((b, 2 * h_dim), dtype=inp.dtype)
            # Both time loops write into preallocated slices but keep the
            # operation order of the gate equations, so results are
            # bit-identical to the plain step; toy training is chaotic
            # enough that one ulp per step changes the trained weights.
            for ti in range(t):
                h_prev_seq[:, ti] = h
                np.matmul(h, u_zr_t, out=a_zr)
                a_zr += b_hzr
                a_zr += a_ih[:, ti, :2 * h_dim]
                zr = sigmoid(a_zr, out=zr_seq[:, ti])
                z = zr[:, :h_dim]
                rh = zr[:, h_dim:] * h
                n = np.tanh(a_ih[:, ti, 2 * h_dim:] + rh @ u_n_t + b_hn, out=n_seq[:, ti])
                h = (1.0 - z) * n + z * h
                h_seq[:, ti] = h
            caches.append((inp, h_prev_seq, z_seq, r_seq, n_seq))
            inp = h_seq
        return inp, caches

    def backward(self, params, caches, dh_seq, grads):
        """dh_seq: (B, T, H) external gradient on the last layer's outputs."""
        d_seq = dh_seq
        for l in reversed(range(self.n_layers)):
            inp, h_prev_seq, z_seq, r_seq, n_seq = caches[l]
            h_dim = self.hidden
            w_ih = params[f"{self.name}.l{l}.w_ih"]
            w_hh = params[f"{self.name}.l{l}.w_hh"]
            u_z = w_hh[:h_dim]
            u_r = w_hh[h_dim:2 * h_dim]
            u_n = w_hh[2 * h_dim:]
            b, t, _ = inp.shape
            da_seq = np.empty((b, t, 3 * h_dim), dtype=inp.dtype)
            carry = np.zeros((b, h_dim), dtype=inp.dtype)
            for ti in reversed(range(t)):
                dh = d_seq[:, ti] + carry
                z = z_seq[:, ti]
                r = r_seq[:, ti]
                n = n_seq[:, ti]
                h_prev = h_prev_seq[:, ti]
                da_z = da_seq[:, ti, :h_dim]
                da_r = da_seq[:, ti, h_dim:2 * h_dim]
                da_n = da_seq[:, ti, 2 * h_dim:]
                dz = dh * (h_prev - n)
                dn = dh * (1.0 - z)
                dh_prev = dh * z
                np.multiply(dn, 1.0 - n * n, out=da_n)
                drh = da_n @ u_n
                np.multiply((drh * h_prev) * r, 1.0 - r, out=da_r)
                dh_prev += drh * r
                np.multiply(dz * z, 1.0 - z, out=da_z)
                dh_prev += da_z @ u_z + da_r @ u_r
                carry = dh_prev
            # Weight gradients as one GEMM each over all B*T frames.
            da2 = da_seq.reshape(b * t, 3 * h_dim)
            h_prev2 = h_prev_seq.reshape(b * t, h_dim)
            rh2 = (r_seq * h_prev_seq).reshape(b * t, h_dim)
            accumulate_grad(grads, f"{self.name}.l{l}.w_ih",
                            da2.T @ inp.reshape(b * t, -1))
            dw_hh = np.concatenate([da2[:, :2 * h_dim].T @ h_prev2,
                                    da2[:, 2 * h_dim:].T @ rh2], axis=0)
            accumulate_grad(grads, f"{self.name}.l{l}.w_hh", dw_hh)
            dbias = da_seq.sum(axis=(0, 1))
            accumulate_grad(grads, f"{self.name}.l{l}.b_ih", dbias)
            accumulate_grad(grads, f"{self.name}.l{l}.b_hh", dbias.copy())
            d_seq = da_seq @ w_ih
        return d_seq

    def flops(self, n_frames: int) -> int:
        if n_frames <= 0:
            return 0
        total = 0
        for i_dim, h in self._layer_dims():
            total += 2 * 3 * (i_dim * h + h * h) * n_frames
        return total


def init_layers(layers, rng, params=None, dtype=np.float32):
    """Initialize a list of layers into one parameter dict (in list order)."""
    if params is None:
        params = {}
    for layer in layers:
        layer.init(params, rng, dtype)
    return params
