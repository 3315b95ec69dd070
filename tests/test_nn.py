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
    x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    np.testing.assert_allclose(nn.conv2d_forward(x_cl, w, b)[0], naive_conv_forward(x, w, b),
                               rtol=0, atol=1e-12)

    gout = rng.standard_normal(out.shape)
    gx, gw, gb = nn.conv2d_backward(cache, gout)
    want_gx, want_gw, want_gb = naive_conv_backward(x, w, gout)
    assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == (f,)
    np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw, want_gw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gb, want_gb, rtol=0, atol=1e-12)


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
    w.setflags(write=False)
    assert not nn.gemm_layout(w).flags.writeable

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


# conv1 and conv2 outputs of an office-like model: 64 filters at 7 x 7, 128 at 6 x 6
@pytest.mark.parametrize("shape", [(6, 64, 7, 7), (6, 128, 6, 6)])
@pytest.mark.parametrize("rate", [0.0, 0.25, 0.5])
def test_relu_dropout_matches_reference(shape, rate):
    data = np.random.default_rng(31)
    x = with_signed_zeros(data.standard_normal(shape))
    gout = with_signed_zeros(data.standard_normal(shape))
    rng, ref_rng = np.random.default_rng(32), np.random.default_rng(32)

    want, ref_cache = reference_relu_dropout_forward(x, rate, ref_rng)
    x_in = x.copy()
    out, cache = nn.relu_dropout_forward(x_in, rate, rng)
    assert out is x_in
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(want))
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    want_g = reference_relu_dropout_backward(ref_cache, gout)
    g_in = gout.copy()
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
