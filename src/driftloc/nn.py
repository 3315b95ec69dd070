"""Minimal layer kernel for the convolutional encoder.

Plain numpy float64 throughout.  Each layer is a forward function
returning (output, cache) and a matching backward function taking
(cache, grad_out).  Convolutions are valid (no padding), stride 1, and
take (N, C, H, W) arrays in one of two memory layouts, NCHW or
channels-last, which they read in place; any other layout raises
ValueError.  Inside, each is an im2col GEMM (Chellapilla et al., 2006).
The forward goes one chunk of images at a time, as many as fit their
(rows*Ho*Wo, k*k*C) patch block, gathered in one copy from a window view
of the input's memory, into one working block (per_block), so the block
stays in cache (Goto & van de Geijn, 2008).  Each thread that runs its
blocks reuses one patch buffer and multiplies each block by the weights'
(k*k*C, F) GEMM matrix into its rows of the one output.  BLAS picks its
kernel by the product's size, so for some shapes an output's last bits
depend on the chunk's row count; the default office-like encoder's convs
give the same bits at every budget the tests try.  The backward
gathers the whole (N*Ho*Wo, k*k*C) patch matrix for the weight gradient,
a sum over every patch row, as one GEMM, and forms the input gradient in
per_block chunks of images: each chunk's k*k per-shift GEMMs add into one
small channels-last buffer.  Chunking changes a GEMM's row count, so its
bits hold only where BLAS keeps its kernel, which the tests check for the
convs whose input gradient training forms.

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
again.  A conv backward takes over its upstream gradient the same way,
and lays it out channels-last in place.

Two streams run a training backward on the CPUs that BLAS leaves free:
WORKERS threads at most, the calling one and those of one live pool.
The calling thread runs the input-gradient chain, layer by layer, and
each layer queues its weight gradient (for a dense layer xT*g, for a conv
the patch gather and its GEMM) on a Tasks block as soon as its upstream
gradient is ready; the pool runs them beside the chain.  At the block's
exit a task that the pool has not started runs on the calling thread.
map_blocks runs a call's independent blocks: a conv2d_forward with fresh
buffers its patch blocks, adam_update its row blocks, encode_batch and
the KNN theirs, each thread in a workspace that the calling thread made.
Each thread takes the next block when it is free, and a pool share that
has not started when the blocks run out finds none left, so a busy pool
thread never stalls a call.  The calling thread makes every array that a
pool thread writes; a pool task runs only GEMMs into given outputs and
in-place passes, and never queues work itself.  Every block and task
keeps its shape, so no GEMM and no result changes a bit with WORKERS.
conv2d_into runs conv2d_forward in lent buffers, its patch blocks in turn
on whichever thread runs it, as encode_batch's blocks do.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

# Bytes of one cache-sized working block, about one core's L2: a conv
# forward's patch block and Adam's two float64 scratch buffers here, a KNN
# query block's distance scratch in localizer.
_BLOCK_BYTES = 1 << 20


def per_block(nbytes: int) -> int:
    """Items of ``nbytes`` each in one working block: as many as fit
    _BLOCK_BYTES, one at least."""
    return max(1, _BLOCK_BYTES // nbytes)


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


# Threads that run map_blocks' blocks and Tasks, the calling one included.
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


class _Task:
    """``run(*arrays)``, which keeps its exception and lets go of its
    arrays once it has run, whichever thread runs it."""

    def __init__(self, run: Callable, arrays: tuple):
        self.run, self.arrays, self.error = run, arrays, None

    def __call__(self) -> None:
        run, arrays = self.run, self.arrays
        self.run = self.arrays = None
        try:
            run(*arrays)
        except Exception as err:  # raised on the thread that waits for the task
            self.error = err


class Tasks:
    """Independent tasks that the live pool runs while the calling thread
    goes on; a context manager whose exit waits for every one.

    ``add(run, *arrays)`` queues ``run(*arrays)``, which writes only
    arrays that the calling thread made, and lets go of them once it has
    run.  With WORKERS 1 it runs at once, inside add(), so its arrays are
    gone before the next task's are made.  On a normal exit, each task
    that the pool has not started is cancelled and runs on the calling
    thread instead, the latest first, so a busy pool thread never stalls
    the exit; then the first task exception, in queue order, is raised
    unchanged.  When the block raises, the unstarted tasks are cancelled
    and never run, the running ones are waited for, and the block's
    exception goes on.  After the exit no task is queued or running.  A
    pool thread that queued a task raises RuntimeError: the pool runs no
    task of its own."""

    def __init__(self):
        self._queued: list[tuple[_Task, Future]] = []

    def __enter__(self) -> "Tasks":
        return self

    def add(self, run: Callable, *arrays) -> None:
        task = _Task(run, arrays)
        if WORKERS <= 1:
            task()
            if task.error is not None:
                raise task.error
            return
        if _pool_thread.on:
            raise RuntimeError("a task queued from one of its own pool threads")
        self._queued.append((task, _pool_of(WORKERS - 1).submit(task)))

    def __exit__(self, kind, value, traceback) -> None:
        queued, self._queued = self._queued, []
        started = []
        for task, future in reversed(queued):  # the pool takes the earliest first
            if not future.cancel():
                started.append(future)
            elif kind is None:
                task()
        # a cancelled future counts as done only once a pool thread has
        # dequeued it, so only the started ones are waited for
        wait(started)
        if kind is None:
            for task, _ in queued:
                if task.error is not None:
                    raise task.error


class _Shared:
    """An iterator over one call's blocks that its threads share: each
    next() hands the next block, under a lock, to whichever thread asks,
    so every block goes to one thread, once."""

    def __init__(self, blocks: Sequence):
        self._blocks, self._lock = iter(blocks), threading.Lock()

    def __iter__(self) -> "_Shared":
        return self

    def __next__(self):
        with self._lock:
            return next(self._blocks)


def map_blocks(run: Callable[[Iterable, object], None], blocks: Sequence,
               workspace: Callable[[], object]) -> None:
    """Run a call's independent blocks on w = min(WORKERS, len(blocks))
    threads, at least one.  Each calls ``run(shared, work)``: ``shared``
    is one iterator over the blocks that hands the next block to whichever
    thread asks, and ``work`` is a ``workspace()`` that the calling thread
    makes, so that no large array comes from a pool thread's own malloc
    arena, which keeps its pages.  The calling thread runs one share and
    queues the others as Tasks.  When the blocks run out, a share that the
    pool has not started runs on the calling thread and finds no block
    left, so a busy pool thread never stalls the call.  A share's
    exception is raised unchanged, the calling thread's first.  ``run``
    writes only its blocks' results, and never maps blocks itself, so a
    pool thread's call with w > 1 raises RuntimeError.  With w = 1,
    ``run`` gets ``blocks`` itself."""
    w = min(WORKERS, len(blocks))
    if w <= 1:
        return run(blocks, workspace())
    works = [workspace() for _ in range(w)]
    shared = _Shared(blocks)
    with Tasks() as tasks:
        for work in works[1:]:
            tasks.add(run, shared, work)
        run(shared, works[0])


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
    kernel: a patch block takes per_block images."""
    n, c, h, wid = x_shape
    f, c2, k, k2 = w_shape
    if c2 != c or k != k2:
        raise ValueError(f"kernel shape {w_shape} incompatible with input {x_shape}")
    ho, wo = h - k + 1, wid - k + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"input {h}x{wid} too small for a {k}x{k} valid convolution")
    per_image = ho * wo * k * k * c
    return k, ho, wo, per_block(8 * per_image), per_image


def _im2col(x: np.ndarray, k: int, ho: int, wo: int, out: np.ndarray) -> np.ndarray:
    """(N*Ho*Wo, k*k*C) patch matrix of x, columns in (dy, dx, c) order,
    written into ``out``, a flat float64 array of that size: one copy from
    a (N, Ho, Wo, k, k, C) window view of x's NCHW or channels-last memory.
    Any other layout raises ValueError (the view needs contiguous memory)."""
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    mem = x if x.flags.c_contiguous else x.transpose(0, 2, 3, 1)  # C-contiguous
    shape = (n, ho, wo, k, k, c)
    windows = np.ndarray(shape, x.dtype, mem, 0, (sn, sh, sw, sh, sw, sc))
    cols = out.reshape(shape)
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
    if out is None:
        out = np.empty(n * ho * wo * f)
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


def _channels_last_rows(a: np.ndarray) -> np.ndarray:
    """a's (N, C, H, W) values as C-contiguous (N*H*W, C) channels-last
    rows, written over a's own C-contiguous NCHW memory one per_block
    chunk of images at a time through one small buffer.  Any other layout
    raises ValueError."""
    if not a.flags.c_contiguous:
        raise ValueError("a conv backward takes its upstream gradient in C-contiguous NCHW memory")
    n, c, h, w = a.shape
    images = a.reshape(n, -1)
    step = per_block(8 * images.shape[1])
    buf = np.empty((min(n, step), h, w, c))
    for lo in range(0, n, step):
        r = min(step, n - lo)
        buf[:r] = a[lo:lo + r].transpose(0, 2, 3, 1)
        images[lo:lo + r] = buf[:r].reshape(r, -1)
    return a.reshape(n * h * w, c)


def conv2d_weight_grad(cache, gout: np.ndarray, tasks: Tasks):
    """The (dw, db) gradients of conv2d_forward, dw in gemm_layout.  gout
    is C-contiguous NCHW memory that the caller hands over, as to
    relu_dropout_backward: db is summed from it, in memory order, and then
    its values are laid out channels-last in place.  dw, the patch
    matrix's gather and its GEMM, is a task queued on ``tasks``, its
    arrays made here; read dw after their block exits."""
    x, w = cache
    k, ho, wo = _conv_plan(x.shape, w.shape)[:3]
    c, f = x.shape[1], w.shape[0]
    db = gout.sum(axis=(0, 2, 3))
    g = _channels_last_rows(gout)
    dwm = np.empty((k * k * c, f))
    tasks.add(lambda cols, dwm: np.matmul(_im2col(x, k, ho, wo, cols).T, g, out=dwm),
              np.empty(g.size // f * k * k * c), dwm)
    # the (k*k*C, F) GEMM product, in gemm_layout without a copy
    return dwm.reshape(k, k, c, f).transpose(3, 2, 0, 1), db


def conv2d_backward(cache, gout: np.ndarray, tasks: Tasks):
    """Gradients (dx, dw, db) of conv2d_forward: conv2d_weight_grad's
    (dw, db), which takes over gout, and dx in NCHW memory.  dx runs on
    the calling thread while the pool runs dw: per_block chunks of images,
    each chunk's k*k per-shift GEMMs adding into one small channels-last
    buffer that stays in cache, which is then written into dx."""
    x, w = cache
    dw, db = conv2d_weight_grad(cache, gout, tasks)
    k, ho, wo = _conv_plan(x.shape, w.shape)[:3]
    n, c, h, wid = x.shape
    f = w.shape[0]
    g = gout.reshape(n * ho * wo, f)  # the channels-last rows that conv2d_weight_grad laid out
    # w as (k, k, F, C) memory, whose C-order (F, C) slices give the same
    # products whatever w's layout
    wk = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    step = per_block(8 * (h * wid + ho * wo) * c)
    acc, shift = np.empty((min(n, step), h, wid, c)), np.empty((min(n, step) * ho * wo, c))
    # dx in NCHW memory: the layer below takes dx as gout, and its db sum
    # adds in memory order, so a channels-last view would change its bits
    dx = np.empty(x.shape)
    for lo in range(0, n, step):
        r = min(step, n - lo)
        part, prod = acc[:r], shift[:r * ho * wo]
        part[...] = 0.0
        for i, j in np.ndindex(k, k):
            np.matmul(g[lo * ho * wo:(lo + r) * ho * wo], wk[i, j], out=prod)
            part[:, i:i + ho, j:j + wo, :] += prod.reshape(r, ho, wo, c)
        dx[lo:lo + r] = part.transpose(0, 3, 1, 2)
    return dx, dw, db


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (N, in), w: (in, out), b: (out,)."""
    return x @ w + b, (x, w)


def dense_backward(cache, gout: np.ndarray, tasks: Tasks):
    """Gradients (dx, dw, db) of dense_forward: dx on the calling thread,
    dw a task queued on ``tasks``, its array made here; read dw after
    their block exits."""
    x, w = cache
    dw = np.empty((x.shape[1], gout.shape[1]))
    tasks.add(lambda dw: np.matmul(x.T, gout, out=dw), dw)
    return np.matmul(gout, w.T), dw, gout.sum(axis=0)


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
# scratch buffers fill one working block.
ADAM_BLOCK = per_block(16)


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
