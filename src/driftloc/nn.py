"""Minimal layer kernel for the convolutional encoder.

Plain numpy float64 throughout.  Each layer is a forward function
returning (output, cache) and a matching backward function taking
(cache, grad_out).  Convolutions are valid (no padding), stride 1, and
take (N, C, H, W) arrays of any memory layout.  Inside, each is an
im2col GEMM (Chellapilla et al., 2006).  The forward goes one chunk of
images at a time, as many as fit their (rows*Ho*Wo, k*k*C) patch block,
gathered in one copy from a window view of the input's memory, into
_BLOCK_BYTES (one image at least), so the block stays in cache (Goto &
van de Geijn, 2008).  Each thread that runs its blocks reuses one patch
buffer and multiplies each block by the weights' (k*k*C, F) GEMM matrix
into its rows of the one output.  BLAS picks its kernel by the product's
size, so for some shapes an output's last bits depend on the chunk's row
count; the default office-like encoder's convs give the same bits at
every budget the tests try.  The backward still gathers the whole (N*Ho*Wo, k*k*C) patch
matrix: it forms the weight gradient, a sum over every patch row, as one
GEMM, and adds the input gradient as k*k per-shift GEMMs into a
channels-last buffer.  The two halves are independent.

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
free: WORKERS threads at most, the calling one and those of one live
pool, each in a workspace that the calling thread made.  Training uses
it in three places.  A conv2d_forward with fresh buffers maps its patch
blocks, each thread with its own patch buffer.  conv2d_backward and
dense_backward run the weight gradient (for a conv, the patch gather and
its GEMM) on the calling thread while a pool thread runs the input
gradient (run_apart).  adam_update maps its row blocks, each thread with
its own scratch.  The calling thread makes every array that a pool
thread writes, and does any layout copy, before the handoff; a pool task
runs only GEMMs into given outputs and in-place passes, and never maps
blocks itself.  Every block and half keeps its shape, so no GEMM and no
result changes a bit with WORKERS.  conv2d_into runs conv2d_forward in
lent buffers, its patch blocks in turn on whichever thread runs it, as
encode_batch's blocks do.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


class _PoolThread(threading.local):
    """Whether this thread is one of the pool's."""
    on = False


_pool_thread = _PoolThread()
_pool: tuple[int, ThreadPoolExecutor] | None = None  # (threads, the pool)
_pool_lock = threading.Lock()


def _mark_pool_thread() -> None:
    _pool_thread.on = True


def _forget_pool() -> None:
    """In a forked child: its copy of the pool has no threads to run
    anything, so the child makes its own on first use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_pool)


def _pool_of(threads: int) -> ThreadPoolExecutor:
    """The one live pool of ``threads`` threads, made on first use and
    made anew, the old one shut down, when WORKERS has changed."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            if _pool is not None:
                _pool[1].shutdown()
            _pool = threads, ThreadPoolExecutor(threads, initializer=_mark_pool_thread)
        return _pool[1]


def map_blocks(run: Callable[[Sequence, object], None], blocks: Sequence,
               workspace: Callable[[], object]) -> None:
    """Call ``run(blocks[i::w], work)`` for each of w = min(WORKERS,
    len(blocks)) interleaved strides of a call's independent blocks, at
    least one, each with a ``workspace()`` that the calling thread makes,
    so that no large array comes from a pool thread's own malloc arena,
    which keeps its pages.  The calling thread runs stride 0, and the
    threads of one live pool of WORKERS - 1 the others, waited for before
    this returns.  A stride's exception is raised unchanged, stride 0's
    first.  ``run`` writes only its blocks' results, and never maps blocks
    itself: a pool thread that waited on the pool could wait on itself, so
    a pool thread's call with w > 1 raises RuntimeError."""
    w = min(WORKERS, len(blocks))
    if w <= 1:
        return run(blocks, workspace())
    if _pool_thread.on:
        raise RuntimeError("map_blocks called from one of its own pool threads")
    works = [workspace() for _ in range(w)]
    pool = _pool_of(WORKERS - 1)
    rest = [pool.submit(run, blocks[i::w], works[i]) for i in range(1, w)]
    try:
        run(blocks[::w], works[0])
    finally:
        wait(rest)
    for future in rest:
        future.result()


def run_apart(*tasks: tuple[Callable[[], object], Callable[[object], object]]) -> list:
    """``[run(make()) for make, run in tasks]`` for independent tasks, each
    ``run`` writing only the arrays that its ``make`` made; every make()
    runs on the calling thread.  With WORKERS 1 the tasks go in turn, each
    make() just before its run, so a task's arrays that its run does not
    return are gone before the next task's are made.  Otherwise every
    make() comes first, and each run is one block of map_blocks."""
    if min(WORKERS, len(tasks)) <= 1:
        return [run(make()) for make, run in tasks]
    works = [make() for make, _ in tasks]
    results = [None] * len(tasks)

    def stride(picked, _):
        for i in picked:
            results[i] = tasks[i][1](works[i])

    map_blocks(stride, range(len(tasks)), lambda: None)
    return results


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


def _patch_source(x: np.ndarray) -> np.ndarray:
    """x's (N, C, H, W) values in NCHW or channels-last memory: x itself
    when it is laid out so, a channels-last copy otherwise."""
    if x.flags.c_contiguous:
        return x
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _im2col(x: np.ndarray, k: int, ho: int, wo: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """(N*Ho*Wo, k*k*C) patch matrix of x, columns in (dy, dx, c) order,
    written into ``out``, a flat float64 array of that size, when given:
    one copy from a (N, Ho, Wo, k, k, C) window view of x's memory, read in
    place when it is NCHW or channels-last and copied to channels-last
    memory first otherwise (_patch_source)."""
    n, c = x.shape[:2]
    x = _patch_source(x)
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
    a view of channels-last memory.  Run by conv2d_into, it writes into
    the lent buffers and goes through its patch blocks in turn on the
    thread that runs it.  Otherwise it makes a fresh output and maps its
    patch blocks over map_blocks' threads, each with a fresh patch buffer
    of conv2d_sizes' entries."""
    k, ho, wo, step, per_image = _conv_plan(x.shape, w.shape)
    n, f = len(x), w.shape[0]
    wm = _gemm_weight(w)
    out, work = _into.bufs
    if out is None:  # fresh: any layout copy comes before the handoff
        x, out = _patch_source(x), np.empty(n * ho * wo * f)
    y = out[:n * ho * wo * f].reshape(n, ho, wo, f)

    def run(starts, work):
        for lo in starts:
            xs = x[lo:lo + step]
            cols = _im2col(xs, k, ho, wo, work[:len(xs) * per_image])
            ys = y[lo:lo + len(xs)].reshape(len(cols), f)
            np.matmul(cols, wm, out=ys)  # (rows*Ho*Wo, k*k*C) x (k*k*C, F)
            ys += b

    if work is None:
        map_blocks(run, range(0, n, step), lambda: np.empty(min(n, step) * per_image))
    else:
        run(range(0, n, step), work)
    return y.transpose(0, 3, 1, 2), (x, w)


def conv2d_backward(cache, gout: np.ndarray):
    """Gradients (dx, dw, db) of conv2d_forward: dx in NCHW memory, dw in
    gemm_layout.  The weight gradient (the patch matrix's gather and its
    GEMM) and the input gradient (k*k per-shift GEMMs) are two run_apart
    tasks, the weight gradient first."""
    x, w = cache
    k, ho, wo = _conv_plan(x.shape, w.shape)[:3]
    x = _patch_source(x)
    n, c, h, wid = x.shape
    f = w.shape[0]
    g = gout.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)

    def weight_arrays():
        return np.empty(n * ho * wo * k * k * c), np.empty((k * k * c, f))

    def weight_grad(work):
        cols, dwm = work
        return np.matmul(_im2col(x, k, ho, wo, cols).T, g, out=dwm)

    def input_arrays():
        # w as (k, k, F, C) memory, whose C-order (F, C) slices give the
        # same products whatever w's layout; dx in channels-last memory;
        # one shift's product
        return (np.ascontiguousarray(w.transpose(2, 3, 0, 1)),
                np.zeros((n, h, wid, c)), np.empty((n * ho * wo, c)))

    def input_grad(work):
        wk, dxh, shift = work
        for dy, dx in np.ndindex(k, k):
            np.matmul(g, wk[dy, dx], out=shift)
            dxh[:, dy:dy + ho, dx:dx + wo, :] += shift.reshape(n, ho, wo, c)
        return dxh

    dwm, dxh = run_apart((weight_arrays, weight_grad), (input_arrays, input_grad))
    db = gout.sum(axis=(0, 2, 3))
    # dw: the (k*k*C, F) GEMM product, in gemm_layout without a copy; dx
    # copied to NCHW: the layer below takes dx as gout, and its db sum adds
    # in memory order, so a channels-last view would change its bits
    return (np.ascontiguousarray(dxh.transpose(0, 3, 1, 2)),
            dwm.reshape(k, k, c, f).transpose(3, 2, 0, 1), db)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (N, in), w: (in, out), b: (out,)."""
    return x @ w + b, (x, w)


def dense_backward(cache, gout: np.ndarray):
    """Gradients (dx, dw, db) of dense_forward: the weight gradient's GEMM
    and the input gradient's are two run_apart tasks, the weight
    gradient first."""
    x, w = cache
    dw, dx = run_apart(
        (lambda: np.empty((x.shape[1], gout.shape[1])), lambda dw: np.matmul(x.T, gout, out=dw)),
        (lambda: np.empty((len(gout), len(w))), lambda dx: np.matmul(gout, w.T, out=dx)))
    return dx, dw, gout.sum(axis=0)


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
    rows, a conv weight in its (k, k, C, F) memory order, and the blocks
    go over map_blocks' threads, each thread's through two scratch buffers
    of its own."""
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
    blocks = []
    for arrs in arrays:
        grad = arrs[1]
        r = max(1, ADAM_BLOCK // (grad.size // len(grad)))
        blocks += [(arrs, lo, r) for lo in range(0, len(grad), r)]

    def run(picked, scratch):
        buf_a, buf_b = scratch
        for arrs, lo, r in picked:
            p, g, m, v = (arr[lo:lo + r] for arr in arrs)
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

    map_blocks(run, blocks, lambda: (np.empty(size), np.empty(size)))
