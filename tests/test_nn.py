import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from driftloc import nn


def naive_conv_forward(x, w, b):
    n, c, h, wid = x.shape
    f, _, k, _ = w.shape
    out = np.empty((n, f, h - k + 1, wid - k + 1))
    for i in range(n):
        for o in range(f):
            for y in range(h - k + 1):
                for z in range(wid - k + 1):
                    acc = b[o]
                    for ch in range(c):
                        for dy in range(k):
                            for dx in range(k):
                                acc += x[i, ch, y + dy, z + dx] * w[o, ch, dy, dx]
                    out[i, o, y, z] = acc
    return out


def naive_conv_backward(x, w, gout):
    n, c, h, wid = x.shape
    f, _, k, _ = w.shape
    gx, gw, gb = np.zeros_like(x), np.zeros_like(w), np.zeros(f)
    for i in range(n):
        for o in range(f):
            for y in range(h - k + 1):
                for z in range(wid - k + 1):
                    g = gout[i, o, y, z]
                    gb[o] += g
                    for ch in range(c):
                        for dy in range(k):
                            for dx in range(k):
                                gx[i, ch, y + dy, z + dx] += g * w[o, ch, dy, dx]
                                gw[o, ch, dy, dx] += g * x[i, ch, y + dy, z + dx]
    return gx, gw, gb


# (N, C, H, W, F, k): k in {1, 2, 3}, C = 1 and C > 1, N = 1 and N > 1, H != W
CONV_CASES = [
    (1, 1, 5, 4, 3, 1),
    (3, 2, 4, 6, 5, 1),
    (2, 1, 4, 6, 5, 2),
    (1, 4, 7, 5, 3, 2),
    (3, 3, 5, 7, 2, 3),
    (1, 2, 3, 3, 4, 3),
]


@pytest.mark.parametrize("n, c, h, wid, f, k", CONV_CASES)
def test_conv_matches_nested_loops(n, c, h, wid, f, k):
    rng = np.random.default_rng(n * 100 + c * 10 + k)
    x = rng.standard_normal((n, c, h, wid))
    w = rng.standard_normal((f, c, k, k))
    b = rng.standard_normal(f)
    out, cache = nn.conv2d_forward(x, w, b)
    assert out.shape == (n, f, h - k + 1, wid - k + 1)
    assert out.transpose(0, 2, 3, 1).flags.c_contiguous and out.dtype == np.float64
    np.testing.assert_allclose(out, naive_conv_forward(x, w, b), rtol=0, atol=1e-12)
    # a channels-last view, as conv2 receives conv1's output at inference
    np.testing.assert_allclose(nn.conv2d_forward(channels_last(x), w, b)[0], naive_conv_forward(x, w, b),
                               rtol=0, atol=1e-12)

    gout = rng.standard_normal(out.shape)
    gx, gw, gb = nn.conv2d_backward(cache, gout)
    want_gx, want_gw, want_gb = naive_conv_backward(x, w, gout)
    assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == (f,)
    # gx is NCHW memory: the layer below sums it as its gout for its bias
    # gradient, and that sum adds in memory order, so the layout sets its bits
    assert gx.flags.c_contiguous
    np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw, want_gw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gb, want_gb, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, c, h, wid, f, k", CONV_CASES)
def test_im2col_gathers_every_patch_in_any_layout(n, c, h, wid, f, k):
    # the patch matrix, by plain indexing, from NCHW memory and from a
    # channels-last view; a strided slice of a larger array is refused
    rng = np.random.default_rng(n * 100 + c * 10 + k + 3)
    x = rng.standard_normal((n, c, h, wid))
    ho, wo = h - k + 1, wid - k + 1
    want = np.array([[x[i, ch, y + dy, z + dx] for dy in range(k) for dx in range(k)
                      for ch in range(c)]
                     for i in range(n) for y in range(ho) for z in range(wo)])
    for layout in (x, channels_last(x)):
        out = np.full(want.size, np.nan)
        cols = nn._im2col(layout, k, ho, wo, out)
        np.testing.assert_array_equal(cols, want)
        assert np.shares_memory(cols, out)
    wide = np.zeros((n, c, h, 2 * wid))
    wide[..., ::2] = x
    with pytest.raises(ValueError, match="not contiguous"):
        nn._im2col(wide[..., ::2], k, ho, wo, np.empty(want.size))


@pytest.mark.parametrize("n, c, h, wid, f, k", CONV_CASES)
def test_gemm_layout_is_bit_neutral(n, c, h, wid, f, k):
    rng = np.random.default_rng(n * 100 + c * 10 + k + 7)
    x = rng.standard_normal((n, c, h, wid))
    w = rng.standard_normal((f, c, k, k))
    b = rng.standard_normal(f)
    wl = nn.gemm_layout(w)
    np.testing.assert_array_equal(wl, w)
    assert wl.flags.writeable and np.shares_memory(nn._gemm_weight(wl), wl)
    assert np.shares_memory(nn.gemm_layout(wl), wl)  # already laid out: no copy

    out, cache = nn.conv2d_forward(x, w, b)
    out_l, cache_l = nn.conv2d_forward(x, wl, b)
    np.testing.assert_array_equal(out_l, out)
    gout = rng.standard_normal(out.shape)
    grads = nn.conv2d_backward(cache, gout)
    grads_l = nn.conv2d_backward(cache_l, gout)
    for got, want in zip(grads_l, grads):
        np.testing.assert_array_equal(got, want)
    dw = grads_l[1]
    assert np.shares_memory(nn._gemm_weight(dw), dw)  # the gradient comes GEMM-ready too


DEFAULT_CONVS = [(96, 1, 8, 8, 64, 2), (96, 64, 7, 7, 128, 2)]  # office-like conv1, conv2


@pytest.mark.parametrize("n, c, h, wid, f, k", CONV_CASES + DEFAULT_CONVS)
def test_conv_forward_chunks_fit_the_budget(n, c, h, wid, f, k, monkeypatch):
    rng = np.random.default_rng(n * 100 + c * 10 + k + 11)
    x = rng.standard_normal((n, c, h, wid))
    w = nn.gemm_layout(rng.standard_normal((f, c, k, k)))
    b = rng.standard_normal(f)
    per_image = 8 * (h - k + 1) * (wid - k + 1) * k * k * c  # one image's patch bytes
    blocks = []
    im2col = nn._im2col

    def recording_im2col(xs, *args):
        cols = im2col(xs, *args)
        blocks.append((len(xs), cols.nbytes))
        return cols

    monkeypatch.setattr(nn, "_im2col", recording_im2col)
    monkeypatch.setattr(nn, "WORKERS", 1)  # one worker, so the blocks come in order
    outs = []
    # one-image chunks, a partial last chunk (for n > 2), one chunk
    for budget in (1, per_image * (n // 2 + 1), per_image * n):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        blocks.clear()
        outs.append(nn.conv2d_forward(x, w, b)[0])
        step = max(1, budget // per_image)
        assert [r for r, _ in blocks] == [min(step, n - lo) for lo in range(0, n, step)]
        assert all(nbytes <= max(budget, per_image) for _, nbytes in blocks)
    assert all(out.transpose(0, 2, 3, 1).flags.c_contiguous for out in outs)
    if (n, c, h, wid, f, k) in DEFAULT_CONVS:
        # the default model's bits do not depend on the chunking
        for out in outs[:2]:
            np.testing.assert_array_equal(out, outs[2])
    else:
        # a GEMM's last bits may depend on its row count, since BLAS picks
        # its kernel by the product's size
        want = naive_conv_forward(x, w, b)
        for out in outs:
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, c, h, wid, f, k", CONV_CASES + DEFAULT_CONVS)
def test_conv_forward_into_given_buffers(n, c, h, wid, f, k):
    # buffers of exactly conv2d_sizes' entries take the output and the
    # patch blocks, with the bits of fresh ones, and only within the call
    rng = np.random.default_rng(n * 100 + c * 10 + k + 12)
    x = rng.standard_normal((n, c, h, wid))
    w = nn.gemm_layout(rng.standard_normal((f, c, k, k)))
    b = rng.standard_normal(f)
    size, patches = nn.conv2d_sizes(x.shape, w.shape)
    out, work = np.full(size, np.nan), np.full(patches, np.nan)
    got = nn.conv2d_into(x, w, b, out, work)[0]
    assert np.shares_memory(got, out)
    fresh = nn.conv2d_forward(x, w, b)[0]
    assert not np.shares_memory(fresh, out)
    np.testing.assert_array_equal(got, fresh)
    assert not np.isnan(out).any() and not np.isnan(work).any()


@pytest.mark.parametrize("blas, env, cpus, workers", [
    ("scipy-openblas", {}, 2, 1),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ("scipy-openblas", {"OMP_NUM_THREADS": "2"}, 8, 4),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "4", "GOTO_NUM_THREADS": "1",
                        "OMP_NUM_THREADS": "1"}, 8, 2),
    ("scipy-openblas", {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 4),
    ("scipy-openblas", {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, 2),
    ("mkl-sdl", {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, 8),
    ("mkl-sdl", {"OPENBLAS_NUM_THREADS": "1"}, 8, 1),
    ("", {"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4,2"}, 2, 1),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "3"}, 2, 1),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "\u00b2", "OMP_NUM_THREADS": "1"}, 2, 2),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": " 1"}, 2, 2),
    ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "4x"}, 8, 2),
], ids=["unset", "openblas-1", "omp-2", "openblas-first", "goto-before-omp",
        "openblas-ignores-mkl", "mkl-before-omp", "mkl-ignores-openblas", "unnamed-blas",
        "zero-skipped", "not-a-count", "more-blas-than-cpus",
        "superscript-not-a-digit", "leading-space", "trailing-text"])
def test_workers_are_usable_cpus_over_blas_threads(blas, env, cpus, workers, monkeypatch):
    # each BLAS's own variables, in the order it reads them, each read as
    # C's atoi reads it: "\u00b2" is no ASCII digit, " 1" is 1, "4x" is 4
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert nn._workers(blas) == workers


def test_any_blas_thread_value_lets_the_cli_start():
    # WORKERS is read at import, so a value that is no count must not
    # stop every command
    env = dict(os.environ, OPENBLAS_NUM_THREADS="\u00b2",
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(nn.__file__)),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "driftloc.cli", "--help"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def assert_fails_alike(fail, ok, same_error):
    """fail() raises an exception that same_error accepts, ok() returns,
    and neither adds a thread to those of the live pool, which a first
    ok() makes, over repeated calls."""
    ok()
    threads = threading.active_count()
    for _ in range(3):
        with pytest.raises(Exception) as err:
            fail()
        assert same_error(err.value), repr(err.value)
        assert threading.active_count() == threads
        ok()
        assert threading.active_count() == threads


class NanError(Exception):
    pass


@pytest.fixture
def fail_on_nan(monkeypatch):
    """A function that makes ``owner.name`` raise a NanError when one of
    its first ``inputs`` positional arguments, the arrays it reads, holds a
    NaN, and the list of the NanErrors raised.  An output buffer is not
    looked at: np.empty memory may hold a NaN before it is written."""
    raised = []

    def install(owner, name, inputs):
        real = getattr(owner, name)

        def failing(*args, **kwargs):
            if any(isinstance(a, np.ndarray) and np.isnan(a).any() for a in args[:inputs]):
                raised.append(NanError(f"{name} met a NaN"))
                raise raised[-1]
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)

    return install, raised


def conv_inputs():
    """x, w, b of a small conv, and copies of x and w that hold a NaN, in
    image 1 and in filter 0."""
    rng = np.random.default_rng(41)
    x, w, b = rng.standard_normal((4, 2, 5, 5)), rng.standard_normal((3, 2, 2, 2)), np.zeros(3)
    bad_x, bad_w = x.copy(), w.copy()
    bad_x[1, 0, 2, 2] = bad_w[0, 1, 1, 0] = np.nan
    return x, w, b, bad_x, bad_w


# On two workers, each failure below is in the part that a pool thread
# runs: stride 1's blocks, or the input-gradient half of a backward.
@pytest.mark.parametrize("workers", [1, 2])
def test_conv_forward_block_error_reaches_the_caller(workers, fail_on_nan, monkeypatch):
    install, raised = fail_on_nan
    install(nn, "_im2col", 1)  # the patch gather of image 1, stride 1's block
    monkeypatch.setattr(nn, "WORKERS", workers)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)  # one-image blocks
    x, w, b, bad_x, _ = conv_inputs()
    assert_fails_alike(lambda: nn.conv2d_forward(bad_x, w, b), lambda: nn.conv2d_forward(x, w, b),
                       lambda err: err is raised[-1])


@pytest.mark.parametrize("workers", [1, 2])
def test_conv_backward_input_half_error_reaches_the_caller(workers, fail_on_nan, monkeypatch):
    # only the input gradient's per-shift GEMMs multiply by w
    install, raised = fail_on_nan
    install(np, "matmul", 2)
    monkeypatch.setattr(nn, "WORKERS", workers)
    x, w, _, _, bad_w = conv_inputs()
    gout = np.random.default_rng(42).standard_normal((4, 3, 4, 4))
    assert_fails_alike(lambda: nn.conv2d_backward((x, bad_w), gout),
                       lambda: nn.conv2d_backward((x, w), gout),
                       lambda err: err is raised[-1])


@pytest.mark.parametrize("workers", [1, 2])
def test_dense_backward_input_half_error_reaches_the_caller(workers, monkeypatch):
    # w has an output column more than gout, so only the input GEMM's
    # shapes clash
    monkeypatch.setattr(nn, "WORKERS", workers)
    rng = np.random.default_rng(43)
    x, w = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
    gout = rng.standard_normal((4, 2))
    with pytest.raises(ValueError) as want:
        np.matmul(gout, w.T)
    assert_fails_alike(lambda: nn.dense_backward((x, w), gout),
                       lambda: nn.dense_backward((x, w[:, :2]), gout),
                       lambda err: type(err) is ValueError and str(err) == str(want.value))


@pytest.mark.parametrize("workers", [1, 2])
def test_adam_block_error_reaches_the_caller(workers, monkeypatch):
    # the second parameter, the second block and stride 1's, is read-only
    monkeypatch.setattr(nn, "WORKERS", workers)
    params = {"a": np.zeros(3), "b": np.zeros(3)}
    params["b"].setflags(write=False)
    with pytest.raises(ValueError) as want:
        params["b"] -= 1.0
    grads = {"a": np.ones(3), "b": np.ones(3)}
    assert_fails_alike(lambda: nn.adam_update(params, grads, nn.AdamState()),
                       lambda: nn.adam_update({"a": np.zeros(3)}, {"a": grads["a"]}, nn.AdamState()),
                       lambda err: type(err) is ValueError and str(err) == str(want.value))


def test_one_live_pool_runs_every_call(monkeypatch):
    # the pool thread outlives a call and runs the next one's stride 1; a
    # pool task that mapped blocks itself could wait on its own thread, so
    # it raises instead
    monkeypatch.setattr(nn, "WORKERS", 2)
    strides = []
    for _ in range(3):
        nn.map_blocks(lambda blocks, _: strides.append((blocks, threading.get_ident())),
                      [0, 1], lambda: None)
    assert {ident for blocks, ident in strides if blocks == [0]} == {threading.get_ident()}
    pool_threads = {ident for blocks, ident in strides if blocks == [1]}
    assert len(pool_threads) == 1 and threading.get_ident() not in pool_threads

    def nested(blocks, _):
        nn.map_blocks(lambda inner, _: None, [0, 1], lambda: None)

    with pytest.raises(RuntimeError, match="its own pool threads"):
        nn.map_blocks(nested, [0, 1], lambda: None)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool(monkeypatch):
    # a forked child's copy of the live pool has no threads; a child that
    # waited on it would hang
    monkeypatch.setattr(nn, "WORKERS", 2)
    nn.map_blocks(lambda blocks, _: None, [0, 1], lambda: None)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            nn.map_blocks(lambda blocks, _: None, [0, 1], lambda: None)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's map_blocks call hung")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_conv_shape_errors():
    x = np.zeros((2, 3, 4, 5))
    with pytest.raises(ValueError, match="incompatible"):
        nn.conv2d_forward(x, np.zeros((4, 2, 2, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="incompatible"):
        nn.conv2d_forward(x, np.zeros((4, 3, 2, 3)), np.zeros(4))
    with pytest.raises(ValueError, match="too small"):
        nn.conv2d_forward(x, np.zeros((4, 3, 5, 5)), np.zeros(4))
    with pytest.raises(ValueError, match="too small"):
        nn.conv2d_forward(np.zeros((2, 3, 6, 2)), np.zeros((4, 3, 3, 3)), np.zeros(4))


def test_adam_matches_textbook():
    # Shapes cover one block, several row blocks (the 2-D and the long 1-D
    # one) and rows longer than a block; "conv" and its gradients are in
    # gemm_layout, "w" is a C-order 4-D weight.
    shapes = {"w": (3, 2, 2, 2), "conv": (5, 3, 2, 2), "b": (7,),
              "fc": (nn.ADAM_BLOCK // 40, 100),
              "long": (nn.ADAM_BLOCK + 5,),
              "wide": (2, nn.ADAM_BLOCK + 3)}
    rng = np.random.default_rng(9)
    params = {name: rng.standard_normal(s) for name, s in shapes.items()}
    params["conv"] = nn.gemm_layout(params["conv"])
    want = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros(s) for name, s in shapes.items()}
    v = {name: np.zeros(s) for name, s in shapes.items()}
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    state = nn.AdamState(lr=lr)
    for t in range(1, 7):
        grads = {name: rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 1)
                 for name, s in shapes.items()}
        grads["conv"] = nn.gemm_layout(grads["conv"])
        nn.adam_update(params, grads, state)
        for name, g in grads.items():
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * g * g
            mhat = m[name] / (1 - b1 ** t)
            vhat = v[name] / (1 - b2 ** t)
            want[name] = want[name] - lr * mhat / (np.sqrt(vhat) + eps)
        assert state.step == t
        for name in shapes:
            np.testing.assert_array_equal(state.m[name], m[name])
            np.testing.assert_array_equal(state.v[name], v[name])
            np.testing.assert_array_equal(params[name], want[name])


def reference_relu_dropout_forward(x, rate, rng):
    """The unfused composition: ReLU, then inverted dropout with a float
    mask of 0 or 1/(1-rate); neither touches x."""
    relu_mask = x > 0.0
    a = np.maximum(x, 0.0)
    if rate == 0.0:
        return a, (relu_mask, None)
    drop_mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return a * drop_mask, (relu_mask, drop_mask)


def reference_relu_dropout_backward(cache, gout):
    relu_mask, drop_mask = cache
    if drop_mask is not None:
        gout = gout * drop_mask
    return gout * relu_mask


def with_signed_zeros(a):
    a.reshape(-1)[::7] = 0.0
    a.reshape(-1)[3::11] = -0.0
    return a


def channels_last(a):
    """a's (N, C, H, W) values as a view of channels-last memory, the
    layout conv2d_forward returns."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


# conv1 and conv2 outputs of an office-like model: 64 filters at 7 x 7, 128 at 6 x 6
@pytest.mark.parametrize("shape", [(6, 64, 7, 7), (6, 128, 6, 6)])
@pytest.mark.parametrize("rate", [0.0, 0.25, 0.5])
def test_relu_dropout_matches_reference(shape, rate):
    # dropout draws its mask in the array's logical order, so an NCHW input
    # and a channels-last view of the same values give the same bits
    data = np.random.default_rng(31)
    x = with_signed_zeros(data.standard_normal(shape))
    gout = with_signed_zeros(data.standard_normal(shape))
    for layout in (np.copy, channels_last):
        rng, ref_rng = np.random.default_rng(32), np.random.default_rng(32)
        want, ref_cache = reference_relu_dropout_forward(x, rate, ref_rng)
        x_in = layout(x)
        out, cache = nn.relu_dropout_forward(x_in, rate, rng)
        assert out is x_in
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

        want_g = reference_relu_dropout_backward(ref_cache, gout)
        g_in = layout(gout)
        got_g = nn.relu_dropout_backward(cache, g_in)
        assert got_g is g_in
        np.testing.assert_array_equal(got_g, want_g)
        np.testing.assert_array_equal(np.signbit(got_g), np.signbit(want_g))


@pytest.mark.parametrize("rate", [-0.1, 1.0, float("nan")])
def test_relu_dropout_rejects_bad_rate(rate):
    with pytest.raises(ValueError, match=r"dropout rate must lie in \[0, 1\)"):
        nn.relu_dropout_forward(np.ones((2, 3)), rate, np.random.default_rng(0))


def test_adam_allocates_moments_once(monkeypatch):
    rng = np.random.default_rng(33)
    params = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
    calls = []
    zeros_like = np.zeros_like

    def counting_zeros_like(*args, **kwargs):
        calls.append(1)
        return zeros_like(*args, **kwargs)

    monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
    state = nn.AdamState()
    for step in range(1, 5):
        grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
        nn.adam_update(params, grads, state)
        assert len(calls) == 2 * len(params), f"step {step}"
