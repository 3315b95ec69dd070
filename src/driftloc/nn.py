"""Minimal layer kernel for the convolutional encoder.

Plain numpy float64 throughout.  Each layer is a forward function
returning (output, cache) and a matching backward function taking
(cache, grad_out).  Convolutions are valid (no padding), stride 1, and
take (N, C, H, W) arrays of any memory layout.  Inside, each is an
im2col GEMM (Chellapilla et al., 2006).  The forward goes one chunk of
images at a time, as many as fit their (rows*Ho*Wo, k*k*C) patch block,
gathered in one copy from a window view of the input's memory, into
_BLOCK_BYTES (one image at least), so the block stays in cache (Goto &
van de Geijn, 2008).  It reuses one patch buffer and multiplies each
block by the weights' (k*k*C, F) GEMM matrix into its rows of the one
output.  BLAS picks its kernel by the product's size, so for some shapes
an output's last bits depend on the chunk's row count; the default
office-like encoder's convs give the same bits at every budget the tests
try.  The backward still gathers the whole (N*Ho*Wo, k*k*C) patch
matrix: it forms the weight gradient, a sum over every patch row, as one
GEMM, and adds the input gradient as k*k per-shift GEMMs into a
channels-last buffer.

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

map_blocks runs a call's independent blocks on the CPUs that BLAS leaves
free: WORKERS threads at most, the calling one included, each in a
workspace that the calling thread made.  Every block keeps its shape, so
no GEMM and no result changes a bit with WORKERS.  conv2d_into runs
conv2d_forward in such buffers; training runs it in fresh ones.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Bytes of one cache-sized working block, about one core's L2: a conv
# forward's patch block and Adam's two float64 scratch buffers here, a KNN
# query block's distance scratch in localizer.
_BLOCK_BYTES = 1 << 20

# The thread variables that each BLAS reads, in the order it reads them;
# any BLAS that is not MKL is taken to be OpenBLAS, numpy's own.
_BLAS_THREAD_VARS = {"mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
                     "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}


def _workers(blas: str) -> int:
    """Usable CPUs over BLAS threads, at least 1, for the BLAS named
    ``blas``.  Its threads are the first of its _BLAS_THREAD_VARS that
    holds a positive count, read as BLAS reads it, with C's atoi: leading
    whitespace, an optional sign, then the leading ASCII digits.  With
    none, BLAS is taken to run on every usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in _BLAS_THREAD_VARS["mkl" if "mkl" in blas.lower() else "openblas"]:
        count = re.match(r"[ \t\n\v\f\r]*([+-]?[0-9]+)", os.environ.get(var, ""))
        if count and int(count[1]) > 0:
            return max(1, cpus // int(count[1]))
    return 1


# Threads that map_blocks runs a call's blocks on, the calling one included.
# numpy before 1.25 does not name its BLAS.
WORKERS = _workers(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
                   .get("blas", {}).get("name", ""))


def map_blocks(run: Callable[[Sequence[int], object], None], starts: Sequence[int],
               workspace: Callable[[], object]) -> None:
    """Call ``run(starts[i::w], work)`` for each of w = min(WORKERS,
    len(starts)) interleaved strides of block starts, at least one, each
    with a ``workspace()`` that the calling thread makes, so that no large
    array comes from a pool thread's own malloc arena, which keeps its
    pages.  The calling thread runs stride 0, and w - 1 pool threads the
    others, joined before this returns.  A stride's exception is raised
    unchanged, stride 0's first.  ``run`` writes only its blocks' results."""
    w = min(WORKERS, len(starts))
    if w <= 1:
        return run(starts, workspace())
    works = [workspace() for _ in range(w)]
    with ThreadPoolExecutor(w - 1) as pool:
        rest = [pool.submit(run, starts[i::w], works[i]) for i in range(1, w)]
        run(starts[::w], works[0])
    for future in rest:
        future.result()


class _Into(threading.local):
    """The (output, patch) buffers that conv2d_forward writes into on this
    thread while conv2d_into runs it; None for fresh ones."""
    bufs = None, None


_into = _Into()


def conv2d_into(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                out: np.ndarray, work: np.ndarray):
    """``conv2d_forward(x, w, b)``, which writes its output into ``out``'s
    first entries and its patch blocks into ``work``, flat float64 arrays
    of at least conv2d_sizes' entries.  They reach it through a
    thread-local setting, not arguments, so that a wrapper of
    conv2d_forward that takes (x, w, b) still sees every call."""
    _into.bufs = out, work
    try:
        return conv2d_forward(x, w, b)
    finally:
        _into.bufs = None, None


def _conv_plan(x_shape: tuple, w_shape: tuple) -> tuple[int, int, int, int, int]:
    """(k, Ho, Wo, images per patch block, patch entries per image) of a
    valid stride-1 convolution forward of an x_shape input by a w_shape
    kernel: a patch block takes as many images as fit _BLOCK_BYTES, one at
    least."""
    n, c, h, wid = x_shape
    f, c2, k, k2 = w_shape
    if c2 != c or k != k2:
        raise ValueError(f"kernel shape {w_shape} incompatible with input {x_shape}")
    ho, wo = h - k + 1, wid - k + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"input {h}x{wid} too small for a {k}x{k} valid convolution")
    per_image = ho * wo * k * k * c
    return k, ho, wo, max(1, _BLOCK_BYTES // (8 * per_image)), per_image


def _im2col(x: np.ndarray, k: int, ho: int, wo: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """(N*Ho*Wo, k*k*C) patch matrix of x, columns in (dy, dx, c) order,
    written into ``out``, a flat float64 array of that size, when given:
    one copy from a (N, Ho, Wo, k, k, C) window view of x's memory, read in
    place when it is NCHW or channels-last and copied to channels-last
    memory first otherwise."""
    n, c = x.shape[:2]
    if not x.flags.c_contiguous:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    sn, sc, sh, sw = x.strides
    mem = x if x.flags.c_contiguous else x.transpose(0, 2, 3, 1)  # C-contiguous
    shape = (n, ho, wo, k, k, c)
    windows = np.ndarray(shape, x.dtype, mem, 0, (sn, sh, sw, sh, sw, sc))
    cols = np.empty(shape) if out is None else out.reshape(shape)
    cols[...] = windows
    return cols.reshape(n * ho * wo, k * k * c)


def gemm_layout(w: np.ndarray) -> np.ndarray:
    """w's (F, C, k, k) values as float64, a view of C-contiguous (k, k, C,
    F) memory: one copy that casts and lays out at once, none when w is a
    float64 array laid out so already."""
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=np.float64).transpose(3, 2, 0, 1)


def _gemm_weight(w: np.ndarray) -> np.ndarray:
    """w's (k*k*C, F) GEMM matrix, rows in the patch's (dy, dx, c) order:
    a view for a gemm_layout weight, a copy otherwise."""
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def conv2d_sizes(x_shape: tuple, w_shape: tuple) -> tuple[int, int]:
    """Entries of conv2d_forward's output, and of its patch buffer, for an
    x_shape input and a w_shape kernel."""
    k, ho, wo, step, per_image = _conv_plan(x_shape, w_shape)
    n = x_shape[0]
    return n * ho * wo * w_shape[0], min(n, step) * per_image


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (N, C, H, W), w: (F, C, k, k), b: (F,) -> (N, F, H-k+1, W-k+1),
    a view of channels-last memory: conv2d_into's buffers when it runs
    this, fresh ones of conv2d_sizes' entries otherwise."""
    k, ho, wo, step, per_image = _conv_plan(x.shape, w.shape)
    n, f = len(x), w.shape[0]
    wm = _gemm_weight(w)
    out, work = _into.bufs
    if out is None:
        out, work = map(np.empty, conv2d_sizes(x.shape, w.shape))
    y = out[:n * ho * wo * f].reshape(n, ho, wo, f)
    for lo in range(0, n, step):
        xs = x[lo:lo + step]
        cols = _im2col(xs, k, ho, wo, work[:len(xs) * per_image])
        ys = y[lo:lo + len(xs)].reshape(len(cols), f)
        np.matmul(cols, wm, out=ys)  # (rows*Ho*Wo, k*k*C) x (k*k*C, F)
        ys += b
    return y.transpose(0, 3, 1, 2), (x, w)


def conv2d_backward(cache, gout: np.ndarray):
    x, w = cache
    k, ho, wo = _conv_plan(x.shape, w.shape)[:3]
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
    # copied to NCHW: the layer below takes dx as gout, and its db sum adds
    # in memory order, so a channels-last view would change its bits
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
    if (norms < 1e-12).any():
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
# dozen elementwise passes of one block run in cache: its two float64
# scratch buffers fill one _BLOCK_BYTES.
ADAM_BLOCK = _BLOCK_BYTES // 16


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
