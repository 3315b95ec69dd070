"""Minimal layer kernel for the convolutional encoder.

Plain numpy float64 throughout.  Each layer is a forward function
returning (output, cache) and a matching backward function taking
(cache, grad_out).  Convolutions are valid (no padding), stride 1, and
take (N, C, H, W) arrays of any memory layout.  Inside, each is one
im2col GEMM (Chellapilla et al., 2006): the forward multiplies the
(N*Ho*Wo, k*k*C) patch matrix, gathered from channels-last shifted
slices, by the weights' (k*k*C, F) GEMM matrix; the backward forms the
weight gradient as one patch-matrix GEMM and adds the input gradient as
k*k per-shift GEMMs into a channels-last buffer.

conv2d_forward returns its GEMM output without a copy: an (N, F, Ho, Wo)
view of channels-last memory, so ``out.transpose(0, 2, 3, 1)`` is
C-contiguous and ``out`` itself is not (unless F or Ho*Wo is 1).  A
caller that needs NCHW memory copies it.  A conv weight is stored
GEMM-ready: gemm_layout gives its (F, C, k, k) values as a view of
C-contiguous (k, k, C, F) memory, the transpose of its (k*k*C, F) GEMM
matrix, so each conv call reads that matrix without a copy.  A weight in
any other layout gives the same results through a per-call copy.
conv2d_backward returns the weight gradient in the same layout.

relu_dropout_forward and relu_dropout_backward overwrite their array
argument and return it: the caller hands over an array it owns (a fresh
conv output, a fresh upstream gradient) and must not read the original
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_conv(x: np.ndarray, w: np.ndarray) -> tuple[int, int, int]:
    """(k, Ho, Wo) of a valid stride-1 convolution of x by w."""
    n, c, h, wid = x.shape
    f, c2, k, k2 = w.shape
    if c2 != c or k != k2:
        raise ValueError(f"kernel shape {w.shape} incompatible with input {x.shape}")
    ho, wo = h - k + 1, wid - k + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"input {h}x{wid} too small for a {k}x{k} valid convolution")
    return k, ho, wo


def _im2col(x: np.ndarray, k: int, ho: int, wo: int) -> np.ndarray:
    """(N*Ho*Wo, k*k*C) patch matrix of x, columns in (dy, dx, c) order."""
    n, c = x.shape[:2]
    xh = x.transpose(0, 2, 3, 1)  # channels-last view
    cols = np.empty((n, ho, wo, k, k, c), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            cols[:, :, :, dy, dx, :] = xh[:, dy:dy + ho, dx:dx + wo, :]
    return cols.reshape(n * ho * wo, k * k * c)


def gemm_layout(w: np.ndarray) -> np.ndarray:
    """w's (F, C, k, k) values as a view of C-contiguous (k, k, C, F)
    memory, with w's write flag; no copy when w is laid out so already."""
    out = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).transpose(3, 2, 0, 1)
    out.setflags(write=w.flags.writeable)
    return out


def _gemm_weight(w: np.ndarray) -> np.ndarray:
    """w's (k*k*C, F) GEMM matrix, rows in the patch's (dy, dx, c) order:
    a view for a gemm_layout weight, a copy otherwise."""
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (N, C, H, W), w: (F, C, k, k), b: (F,) -> (N, F, H-k+1, W-k+1),
    a view of channels-last memory."""
    k, ho, wo = _check_conv(x, w)
    n, f = len(x), w.shape[0]
    y = _im2col(x, k, ho, wo) @ _gemm_weight(w)  # (N*Ho*Wo, k*k*C) x (k*k*C, F)
    y += b
    return y.reshape(n, ho, wo, f).transpose(0, 3, 1, 2), (x, w)


def conv2d_backward(cache, gout: np.ndarray):
    x, w = cache
    k, ho, wo = _check_conv(x, w)
    n, c, h, wid = x.shape
    f = w.shape[0]
    g = gout.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
    # (k*k*C, F) GEMM product, returned in gemm_layout without a copy
    dw = (_im2col(x, k, ho, wo).T @ g).reshape(k, k, c, f).transpose(3, 2, 0, 1)
    dxh = np.zeros((n, h, wid, c), dtype=np.float64)
    shift = np.empty((n * ho * wo, c), dtype=np.float64)  # one shift's product
    for dy in range(k):
        for dx in range(k):
            # a C-order (F, C) slice: the same product whatever w's layout
            np.matmul(g, np.ascontiguousarray(w[:, :, dy, dx]), out=shift)
            dxh[:, dy:dy + ho, dx:dx + wo, :] += shift.reshape(n, ho, wo, c)
    db = gout.sum(axis=(0, 2, 3))
    return np.ascontiguousarray(dxh.transpose(0, 3, 1, 2)), dw, db


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (N, in), w: (in, out), b: (out,)."""
    return x @ w + b, (x, w)


def dense_backward(cache, gout: np.ndarray):
    x, w = cache
    return gout @ w.T, x.T @ gout, gout.sum(axis=0)


def relu_dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator | None):
    """ReLU then inverted dropout, in place on x: surviving units are
    scaled by 1/(1-rate).  The cache is one boolean mask (positive and
    kept) and that scale; rate 0 draws nothing from rng."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    mask = x > 0.0
    np.maximum(x, 0.0, out=x)
    scale = 1.0
    if rate > 0.0:
        scale = 1.0 / (1.0 - rate)
        mask &= rng.random(x.shape) >= rate
        x *= mask
        x *= scale
    return x, (mask, scale)


def relu_dropout_backward(cache, gout: np.ndarray):
    """Gradient of relu_dropout_forward, in place on gout."""
    mask, scale = cache
    gout *= mask
    gout *= scale
    return gout


def l2norm_forward(z: np.ndarray):
    """Row-wise projection onto the unit sphere: e = z / ||z||."""
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    if np.any(norms < 1e-12):
        raise FloatingPointError("pre-normalization embedding collapsed to zero")
    e = z / norms
    return e, (e, norms)


def l2norm_backward(cache, gout: np.ndarray):
    e, norms = cache
    # d(z/||z||) pulls out the radial component of the upstream gradient.
    return (gout - e * (gout * e).sum(axis=1, keepdims=True)) / norms


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam walks each parameter in blocks of about this many entries, so the
# dozen elementwise passes of one block run in cache.
ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators."""

    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState) -> None:
    """One Adam step, in place: m and v updated, then
    p -= (lr * mhat) / (sqrt(vhat) + eps) with mhat = m / (1 - beta1**t) and
    vhat = v / (1 - beta2**t).  Each parameter goes by blocks of leading-axis
    rows, a conv weight in its (k, k, C, F) memory order, through two
    scratch buffers that the whole call shares."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name in grads:
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
    # a conv weight goes as its gemm_layout memory, (k, k, C, F); the update
    # is elementwise, so transposing all four arrays alike changes no bit
    arrays = [[a.transpose(2, 3, 1, 0) if a.ndim == 4 else a
               for a in (params[name], grad, state.m[name], state.v[name])]
              for name, grad in grads.items()]
    # a block is as many rows as fit in ADAM_BLOCK entries, or one longer row
    size = max([ADAM_BLOCK] + [g.size // len(g) for _, g, _, _ in arrays])
    buf_a, buf_b = np.empty(size), np.empty(size)
    for param, grad, mom1, mom2 in arrays:
        r = max(1, ADAM_BLOCK // (grad.size // len(grad)))
        for lo in range(0, len(param), r):
            p, g, m, v = (arr[lo:lo + r] for arr in (param, grad, mom1, mom2))
            a = buf_a[:p.size].reshape(p.shape)
            b = buf_b[:p.size].reshape(p.shape)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)
            a *= state.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            p -= np.divide(a, b, out=a)
