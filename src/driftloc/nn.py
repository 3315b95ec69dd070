"""Minimal layer kernel for the convolutional encoder.

Plain numpy float64 throughout.  Each layer is a forward function
returning (output, cache) and a matching backward function taking
(cache, grad_out).  Convolutions are valid (no padding), stride 1,
implemented as k*k shifted-view matmuls, which keeps the arithmetic
exact and BLAS-fast without an im2col copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (N, C, H, W), w: (F, C, k, k), b: (F,) -> (N, F, H-k+1, W-k+1)."""
    n, c, h, wid = x.shape
    f, c2, k, k2 = w.shape
    if c2 != c or k != k2:
        raise ValueError(f"kernel shape {w.shape} incompatible with input {x.shape}")
    ho, wo = h - k + 1, wid - k + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"input {h}x{wid} too small for a {k}x{k} valid convolution")
    out = np.empty((n, f, ho, wo), dtype=np.float64)
    out[:] = b[None, :, None, None]
    for dy in range(k):
        for dx in range(k):
            view = x[:, :, dy:dy + ho, dx:dx + wo]
            # (N, Ho, Wo, F) <- (N, C, Ho, Wo) x (F, C)
            out += np.tensordot(view, w[:, :, dy, dx], axes=([1], [1])).transpose(0, 3, 1, 2)
    return out, (x, w)


def conv2d_backward(cache, gout: np.ndarray):
    x, w = cache
    n, c, h, wid = x.shape
    f, _, k, _ = w.shape
    ho, wo = h - k + 1, wid - k + 1
    dw = np.empty_like(w)
    dx = np.zeros_like(x)
    db = gout.sum(axis=(0, 2, 3))
    for dy in range(k):
        for dx_ in range(k):
            view = x[:, :, dy:dy + ho, dx_:dx_ + wo]
            dw[:, :, dy, dx_] = np.tensordot(gout, view, axes=([0, 2, 3], [0, 2, 3]))
            dx[:, :, dy:dy + ho, dx_:dx_ + wo] += np.tensordot(
                gout, w[:, :, dy, dx_], axes=([1], [0])
            ).transpose(0, 3, 1, 2)
    return dx, dw, db


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (N, in), w: (in, out), b: (out,)."""
    return x @ w + b, (x, w)


def dense_backward(cache, gout: np.ndarray):
    x, w = cache
    return gout @ w.T, x.T @ gout, gout.sum(axis=0)


def relu_forward(x: np.ndarray):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_backward(cache, gout: np.ndarray):
    return gout * cache


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout: surviving units are scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(cache, gout: np.ndarray):
    return gout if cache is None else gout * cache


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


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators."""

    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState) -> None:
    """One Adam step, in place."""
    state.step += 1
    t = state.step
    for name, g in grads.items():
        p = params[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        p -= state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
