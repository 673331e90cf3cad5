"""Neural-network layer primitives with explicit forward/backward passes.

All layers operate on numpy arrays and keep their parameters in a flat
``dict[str, np.ndarray]`` keyed by dotted names (``"cm1.fc1.w"``), which is
also the checkpoint tensor namespace.  Every layer implements:

  * ``param_specs()``  -> list of (name, shape) pairs it owns
  * ``init(params, rng)`` -> create parameters (deterministic draw order)
  * ``forward(params, x)`` -> (output, cache)
  * ``backward(params, cache, dy, grads)`` -> dx, writing its tensors'
    gradients into ``grads``
  * ``flops(n_frames)`` -> multiply-accumulate based FLOP estimate (2 * MACs)
    for n_frames >= 1

Sequence activations use the (batch, time, channels) layout.  Computations
run in the dtype of the inputs/parameters: float32 for training, float64 in
the finite-difference gradient tests.

Layout rule: an operand that is constant over time, per channel ``(C,)``
or per utterance ``(B, 1, C)``, is repeated over the frames by
``_over_time`` before an element-wise op with a ``(B, T, C)`` activation,
as a GRU bias ``(C,)`` is over the batch rows of its ``(B, C)`` step blocks.
A plain broadcast makes numpy run a C-long inner loop once per frame, and
the Res2 groups are only 2 channels wide at the toy width.  At
(32, 400, 2) float32 on one Xeon core, ``x - m`` took 126 us broadcast and
17 us repeated (the repeat then takes the result), and ``g * x + b`` 275 us
against 31 us; at (1, 300, 1024) the two forms cost about the same.  Each
op keeps its operands and their order, so results are bit-identical, and
a repeat is a temporary that no cache keeps.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np


def sigmoid(x, out=None):
    """Numerically stable logistic function e^min(x, 0) / (1 + e^-|x|), which
    is 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) otherwise, bit for bit:
    exp never sees a positive argument, and no branch is taken.  ``out``
    receives the result when given."""
    return np.divide(np.exp(np.minimum(x, 0)), 1.0 + np.exp(-np.abs(x)), out=out)


def relu(x):
    return np.maximum(x, 0)


def _time_mean(x):
    """Mean of (B, T, C) over time as one GEMM -> (B, 1, C); BLAS takes the
    row sum, where a strided reduction over a narrow channel axis is slow."""
    return np.full((1, x.shape[1]), 1.0 / x.shape[1], dtype=x.dtype) @ x


def _over_time(v, t):
    """A (C,) operand, or a (B, C) or (B, 1, C) one, repeated over t frames:
    a contiguous (1 or B, t, C) array for element-wise ops on (B, t, C)."""
    return np.repeat(v.reshape(-1, 1, v.shape[-1]), t, axis=1)


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Linear:
    """Affine map on the last axis: y = x @ w.T + b, w of shape (out, in)."""

    def __init__(self, name: str, in_dim: int, out_dim: int):
        self.name = name
        self.in_dim = in_dim
        self.out_dim = out_dim

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
        grads[f"{self.name}.w"] = dw
        grads[f"{self.name}.b"] = db
        return dy @ w

    def flops(self, n_frames: int) -> int:
        return 2 * self.in_dim * self.out_dim  # once per utterance


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

    def _side_taps(self, t):
        """(tap, shift, lo, hi) for every non-centre tap that reaches the
        sequence: output frames [lo, hi) read input frames [lo+shift,
        hi+shift).  A tap lying wholly in the zero padding (t <= |shift|)
        is left out."""
        taps = []
        for j in range(self.kernel):
            shift = j * self.dilation - self.pad
            lo, hi = max(0, -shift), min(t, t - shift)
            if shift and lo < hi:
                taps.append((j, shift, lo, hi))
        return taps

    def _tap_weights(self, params):
        """(K, Cout, Cin) with one contiguous matrix per tap, so every tap
        GEMM goes to BLAS; a view of the weight when K=1."""
        return np.ascontiguousarray(params[f"{self.name}.w"].transpose(2, 0, 1))

    def forward(self, params, x):
        # One GEMM per tap over all B*T frames, added into y shifted by the
        # tap's offset; zero padding is implicit and no im2col copy is made.
        w_taps = self._tap_weights(params)
        bsz, t, _ = x.shape
        x2 = x.reshape(bsz * t, self.in_ch)
        y = (x2 @ w_taps[self.kernel // 2].T).reshape(bsz, t, self.out_ch)
        y += _over_time(params[f"{self.name}.b"], t)
        for j, shift, lo, hi in self._side_taps(t):
            yj = (x2 @ w_taps[j].T).reshape(bsz, t, self.out_ch)
            y[:, lo:hi] += yj[:, lo + shift:hi + shift]
        return y, x

    def backward(self, params, cache, dy, grads, input_grad=True):
        """Weight and bias gradients into ``grads``; returns the input
        gradient, or None without ``input_grad``: an input nothing
        differentiates (such as the frozen concat) needs none."""
        x = cache
        bsz, t, _ = x.shape
        centre = self.kernel // 2
        dy2 = dy.reshape(bsz * t, self.out_ch)
        dw = np.zeros((self.out_ch, self.in_ch, self.kernel),
                      dtype=params[f"{self.name}.w"].dtype)
        dw[:, :, centre] = dy2.T @ x.reshape(bsz * t, self.in_ch)
        for j, shift, lo, hi in self._side_taps(t):
            dw[:, :, j] = (dy[:, lo:hi].reshape(-1, self.out_ch).T
                           @ x[:, lo + shift:hi + shift].reshape(-1, self.in_ch))
        grads[f"{self.name}.w"] = dw
        grads[f"{self.name}.b"] = dy.sum(axis=(0, 1))
        if not input_grad:
            return None
        w_taps = self._tap_weights(params)
        dx = (dy2 @ w_taps[centre]).reshape(bsz, t, self.in_ch)
        for j, shift, lo, hi in self._side_taps(t):
            dxj = (dy2 @ w_taps[j]).reshape(bsz, t, self.in_ch)
            dx[:, lo + shift:hi + shift] += dxj[:, lo:hi]
        return dx

    def flops(self, n_frames: int) -> int:
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
        # A (B, T, C) repeat also takes its op's result.
        t = x.shape[1]
        xc = _over_time(_time_mean(x), t)
        np.subtract(x, xc, out=xc)
        istd = 1.0 / np.sqrt(_time_mean(xc * xc) + np.asarray(self.EPS, dtype=x.dtype))
        xhat = _over_time(istd, t)
        np.multiply(xc, xhat, out=xhat)
        y = _over_time(params[f"{self.name}.g"], t) * xhat
        y += _over_time(params[f"{self.name}.b"], t)
        return y, (xhat, istd)

    def backward(self, params, cache, dy, grads):
        # istd * (dxh - mean(dxh) - xhat * mean(dxh * xhat)), op by op;
        # a (B, T, C) repeat also takes its op's result.
        xhat, istd = cache
        t = xhat.shape[1]
        grads[f"{self.name}.g"] = (dy * xhat).sum(axis=(0, 1))
        grads[f"{self.name}.b"] = dy.sum(axis=(0, 1))
        dxh = dy * _over_time(params[f"{self.name}.g"], t)
        dx = _over_time(_time_mean(dxh), t)
        np.subtract(dxh, dx, out=dx)
        proj = _over_time(_time_mean(dxh * xhat), t)
        dx -= np.multiply(xhat, proj, out=proj)
        return np.multiply(_over_time(istd, t), dx, out=dx)

    def flops(self, n_frames: int) -> int:
        return 0


class Composite:
    """A layer built from sublayers, listed once by ``children()`` in
    parameter (and init draw) order; specs, init and FLOPs are theirs."""

    def param_specs(self):
        return [spec for child in self.children() for spec in child.param_specs()]

    def init(self, params, rng, dtype=np.float32):
        init_layers(self.children(), rng, params, dtype)

    def flops(self, n_frames: int) -> int:
        return sum(child.flops(n_frames) for child in self.children())


class SEGate(Composite):
    """Squeeze-excitation: rescale channels by a gate from the time-mean."""

    def __init__(self, name: str, channels: int, bottleneck: int):
        self.name = name
        self.channels = channels
        self.bottleneck = bottleneck
        self.fc1 = Linear(f"{name}.fc1", channels, bottleneck)
        self.fc2 = Linear(f"{name}.fc2", bottleneck, channels)

    def children(self):
        return [self.fc1, self.fc2]

    def forward(self, params, x):
        s = _time_mean(x)[:, 0]
        z_pre, c1 = self.fc1.forward(params, s)
        z = relu(z_pre)
        g_pre, c2 = self.fc2.forward(params, z)
        g = sigmoid(g_pre)
        y = _over_time(g, x.shape[1])
        np.multiply(x, y, out=y)
        return y, (x, z_pre, c1, c2, g)

    def backward(self, params, cache, dy, grads):
        x, z_pre, c1, c2, g = cache
        t = x.shape[1]
        dx = _over_time(g, t)
        np.multiply(dy, dx, out=dx)
        dg = (dy * x).sum(axis=1)
        dg_pre = dg * g * (1.0 - g)
        dz = self.fc2.backward(params, c2, dg_pre, grads)
        dz_pre = dz * (z_pre > 0)
        ds = self.fc1.backward(params, c1, dz_pre, grads)
        dx += _over_time(ds / t, t)
        return dx


class SERes2Block(Composite):
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

    def children(self):
        pairs = [layer for pair in zip(self.convs, self.norms) for layer in pair]
        return [self.conv1, self.norm1, *pairs, self.conv3, self.norm3, self.se]

    def forward(self, params, x):
        h1, c1 = self.conv1.forward(params, x)
        n1, cn1 = self.norm1.forward(params, h1)
        r1 = relu(n1)
        outs = [r1[:, :, i:i + self.width] for i in range(0, self.channels, self.width)]
        gcaches = []
        for i, (conv, norm) in enumerate(zip(self.convs, self.norms)):
            h, cc = conv.forward(params, outs[i - 1] + outs[i] if i else outs[0])
            hn, cn = norm.forward(params, h)
            outs[i] = relu(hn)
            gcaches.append((cc, cn, hn))
        h3, c3 = self.conv3.forward(params, np.concatenate(outs, axis=2))
        n3, cn3 = self.norm3.forward(params, h3)
        y_se, cse = self.se.forward(params, relu(n3))
        return y_se + x, (c1, cn1, n1, gcaches, c3, cn3, n3, cse)

    def backward(self, params, cache, dy, grads):
        c1, cn1, n1, gcaches, c3, cn3, n3, cse = cache
        dn3 = self.se.backward(params, cse, dy, grads) * (n3 > 0)
        dh3 = self.norm3.backward(params, cn3, dn3, grads)
        dcat = self.conv3.backward(params, c3, dh3, grads)
        dg = [dcat[:, :, i:i + self.width] for i in range(0, self.channels, self.width)]
        carry = 0.0
        for i in reversed(range(self.scale - 1)):
            cc, cn, hn = gcaches[i]
            dh = self.norms[i].backward(params, cn, (dg[i] + carry) * (hn > 0), grads)
            dg[i] = carry = self.convs[i].backward(params, cc, dh, grads)
        dn1 = np.concatenate(dg, axis=2) * (n1 > 0)
        dh1 = self.norm1.backward(params, cn1, dn1, grads)
        return dy + self.conv1.backward(params, c1, dh1, grads)


class AttentiveStatsPool(Composite):
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
        self.fc1 = Linear(f"{name}.att.fc1", in_dim, att_dim)
        self.fc2 = Linear(f"{name}.att.fc2", att_dim, 1)

    def children(self):
        return [self.fc1, self.fc2]

    def flops(self, n_frames: int) -> int:
        return super().flops(n_frames) * n_frames  # attention runs on every frame

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
        dm2 = dy[:, d:] * (0.5 / sigma) * (var > 0)
        dmu = dy[:, :d] - 2.0 * mu * dm2
        dalpha = np.einsum("bd,btd->bt", dmu, x) + np.einsum("bd,btd->bt", dm2, x * x)
        dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        da = self.fc2.backward(params, c2, dscores[:, :, None], grads)
        da *= 1.0 - a * a
        dx = self.fc1.backward(params, c1, da, grads)
        del da  # freed before dx_stats is made
        dx_stats = 2.0 * dm2[:, None, :] * x  # alpha (dmu + 2 dm2 x); + and * commute bitwise
        dx_stats += dmu[:, None, :]
        dx_stats *= alpha[:, :, None]
        dx += dx_stats
        return dx


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

    def _weights(self, params, l):
        return [params[f"{self.name}.l{l}.{k}"] for k in ("w_ih", "w_hh", "b_ih", "b_hh")]

    def forward(self, params, x):
        """x: (B, T, input_dim) -> (h_seq of last layer (B, T, H), cache).

        The time loops of forward and backward run time-major: every
        per-step operand is a (B, H) block, rows contiguous, of an array
        allocated once per layer, and each GEMM writes into a buffer.  They
        keep the operation order of the gate equations, so results are
        bit-identical to the plain step; toy training is chaotic enough that
        one ulp per step changes the trained weights.  Each layer runs in its
        own call, so its temporaries are freed before the next layer's are made.
        A layer's cache is ``(inp, hs, zr_seq, n_seq)``: its input, then
        h_0..h_T, [z, r] and n per step, four (T, B, H)-sized arrays; 1 - z
        lives in a (B, H) step buffer, which the backward refills.  The input
        projections wait in the z, r and n slots: two layers peak at 10 units.
        """
        caches = []
        inp = x
        for l in range(self.n_layers):
            inp, cache = self._forward_layer(params, l, inp)
            caches.append(cache)
        return inp, caches

    def _forward_layer(self, params, l, inp):
        hd = self.hidden
        w_ih, w_hh, b_ih, b_hh = self._weights(params, l)
        b, t, _ = inp.shape
        a_ih = inp @ w_ih.T  # (B, T, 3H)
        a_ih += b_ih
        # [z, r] and n per step, each slot holding its input projection until
        # the loop reads it and the gate overwrites it.
        zr_seq = a_ih[:, :, :2 * hd].reshape(b, t, 2, hd).transpose(1, 2, 0, 3).copy()
        n_seq = a_ih[:, :, 2 * hd:].transpose(1, 0, 2).copy()
        del a_ih
        hs = np.zeros((t + 1, b, hd), dtype=inp.dtype)  # hs[ti] = h_ti
        u_zr_t, u_n_t = w_hh[:2 * hd].T, w_hh[2 * hd:].T
        b_hzr, b_hn = np.tile(b_hh[:2 * hd], (b, 1)), np.tile(b_hh[2 * hd:], (b, 1))
        one = np.array(1.0, dtype=inp.dtype)
        a_zr = np.empty((b, 2 * hd), dtype=inp.dtype)
        a_zr3 = a_zr.reshape(b, 2, hd)  # [z | r] columns as (B, 2, H), like zr below
        a_n, rh, zh, omz = np.empty((4, b, hd), dtype=inp.dtype)
        for h, h_next, (z, r), zr, n in zip(
                hs, hs[1:], zr_seq, zr_seq.transpose(0, 2, 1, 3), n_seq):
            np.dot(h, u_zr_t, out=a_zr)
            a_zr += b_hzr
            a_zr3 += zr
            sigmoid(a_zr3, out=zr)
            np.multiply(r, h, out=rh)
            np.dot(rh, u_n_t, out=a_n)
            np.add(n, a_n, out=a_n)
            a_n += b_hn
            np.tanh(a_n, out=n)
            np.subtract(one, z, out=omz)
            np.multiply(z, h, out=zh)
            np.multiply(omz, n, out=h_next)
            h_next += zh
        return hs[1:].transpose(1, 0, 2), (inp, hs, zr_seq, n_seq)

    def backward(self, params, caches, dh_seq, grads, input_grad=True):
        """dh_seq: (B, T', H) gradient on the last layer's last T' <= T outputs
        -> the input gradient, or None without ``input_grad`` (a frozen input)."""
        b, t, _ = caches[-1][0].shape
        if dh_seq.shape[0] != b or dh_seq.shape[1] > t or dh_seq.shape[2] != self.hidden:
            raise ValueError(f"dh_seq {dh_seq.shape} does not fit outputs {(b, t, self.hidden)}")
        d_seq = dh_seq
        for l in reversed(range(self.n_layers)):
            d_seq = self._backward_layer(params, l, caches[l], d_seq, grads,
                                         input_grad or l > 0)
        return d_seq

    def _backward_layer(self, params, l, cache, d_seq, grads, input_grad):
        """The factors h_prev - n, 1 - r and 1 - n*n are staged for all steps
        in the z, r and n slots of ``da`` (B, T, 3, H) (same bits, fewer calls
        in the loop), and the reverse time loop overwrites each step's slots
        with its pre-activation gradients [z, r, n]; 1 - z is refilled per
        step.  Then each weight gradient is one GEMM over all B*T frames.  A
        layer peaks at ``da`` plus one (T, B, H) array, h_prev or the input
        gradient: 4.1 such units above the caches at the toy CM1 shape."""
        hd = self.hidden
        inp, hs, zr_seq, n_seq = cache
        w_ih, w_hh, _, _ = self._weights(params, l)
        u_z, u_r, u_n = w_hh[:hd], w_hh[hd:2 * hd], w_hh[2 * hd:]
        b, t, _ = inp.shape
        da = np.empty((b, t, 3, hd), dtype=inp.dtype)
        da_z_seq, da_r_seq, da_n_seq = da.transpose(2, 1, 0, 3)
        np.subtract(hs[:-1], n_seq, out=da_z_seq)
        np.subtract(1.0, zr_seq[:, 1], out=da_r_seq)
        np.multiply(n_seq, n_seq, out=da_n_seq)
        np.subtract(1.0, da_n_seq, out=da_n_seq)
        carry = np.zeros((b, hd), dtype=inp.dtype)
        dh, dz, dn, drh, omz, tmp, tmp2 = np.empty((7, b, hd), dtype=inp.dtype)
        one = np.array(1.0, dtype=inp.dtype)
        for h_prev, (z, r), d, da_z, da_r, da_n in zip(
                hs[-2::-1], zr_seq[::-1], chain(d_seq.transpose(1, 0, 2)[::-1], repeat(0)),
                da_z_seq[::-1], da_r_seq[::-1], da_n_seq[::-1]):
            np.subtract(one, z, out=omz)
            np.add(d, carry, out=dh)
            np.multiply(dh, da_z, out=dz)  # h_prev - n
            np.multiply(dh, omz, out=dn)
            np.multiply(dh, z, out=carry)  # dh_prev
            np.multiply(dn, da_n, out=da_n)  # 1 - n*n
            np.dot(da_n, u_n, out=drh)
            np.multiply(drh, h_prev, out=tmp)
            tmp *= r
            np.multiply(tmp, da_r, out=da_r)  # 1 - r
            np.multiply(drh, r, out=tmp)
            carry += tmp
            np.multiply(dz, z, out=tmp)
            np.multiply(tmp, omz, out=da_z)
            np.dot(da_z, u_z, out=tmp)
            np.dot(da_r, u_r, out=tmp2)
            tmp += tmp2
            carry += tmp
        da_seq = da.reshape(b, t, 3 * hd)
        da2 = da_seq.reshape(b * t, 3 * hd)
        grads[f"{self.name}.l{l}.w_ih"] = da2.T @ inp.reshape(b * t, -1)
        # h_prev batch-major, then r * h_prev in place, in a buffer (at B=1 the
        # view is hs itself): below the top, the spent gradient from above.
        hp = d_seq if l < self.n_layers - 1 else np.empty((b, t, hd), dtype=inp.dtype)
        hp[...] = hs[:-1].transpose(1, 0, 2)
        dw_zr = da2[:, :2 * hd].T @ hp.reshape(b * t, hd)
        hp *= zr_seq[:, 1].transpose(1, 0, 2)
        grads[f"{self.name}.l{l}.w_hh"] = np.concatenate(
            [dw_zr, da2[:, 2 * hd:].T @ hp.reshape(b * t, hd)], axis=0)
        del hp  # before the input gradient is made
        dbias = da_seq.sum(axis=(0, 1))
        grads[f"{self.name}.l{l}.b_ih"] = dbias
        grads[f"{self.name}.l{l}.b_hh"] = dbias.copy()
        return da_seq @ w_ih if input_grad else None

    def flops(self, n_frames: int) -> int:
        total = 0
        for i_dim, h in self._layer_dims():
            total += 2 * 3 * (i_dim * h + h * h) * n_frames
        return total


class ClassWeights:
    """Unit-norm class rows for margin-softmax scoring (n_classes x dim)."""

    def __init__(self, name: str, n_classes: int, dim: int):
        self.name = name
        self.n_classes = n_classes
        self.dim = dim

    def param_specs(self):
        return [(f"{self.name}.w", (self.n_classes, self.dim))]

    def init(self, params, rng, dtype=np.float32):
        w = glorot_uniform(rng, (self.n_classes, self.dim), self.dim,
                           self.n_classes, dtype)
        if self.n_classes == 2:
            # Antipodal start: random 2-row init can collapse the margin
            # loss's rotational degeneracy into nearly parallel rows.
            w[1] = -w[0]
        params[f"{self.name}.w"] = w

    def flops(self, n_frames: int) -> int:
        return 2 * self.n_classes * self.dim


def init_layers(layers, rng, params=None, dtype=np.float32):
    """Initialize a list of layers into one parameter dict (in list order)."""
    if params is None:
        params = {}
    for layer in layers:
        layer.init(params, rng, dtype)
    return params


def tensor_names(layers) -> list[str]:
    """Parameter names of a list of layers, in list order."""
    return [name for layer in layers for name, _ in layer.param_specs()]
