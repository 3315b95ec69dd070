import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_nn import reference_relu_dropout_backward, reference_relu_dropout_forward

from driftloc import nn
from driftloc.cli import random_check_triplet, run_gradcheck
from driftloc.data import split_by_ci
from driftloc.encoder import (BLOCK_ROWS, PARAM_ORDER, EncoderConfig, EncoderModel,
                              _forward, encode_batch, gradient_check, init_model,
                              small_check_config, train_step, triplet_loss)
from driftloc.errors import HingeInactiveError, StochasticModelError
from driftloc.localizer import TrainConfig, train
from driftloc.model_io import save_model
from driftloc.nn import AdamState
from driftloc.preprocess import image_side, normalize_rows, pad_square
from driftloc.sampler import build_pmf_table, make_batch, rp_members
from driftloc.simulate import generate, preset


def rand_image(side, rng):
    return rng.random(side * side)


def encode(model, row):
    return encode_batch(model, [row])[0]


def small_model(seed=0, side=4, **overrides):
    cfg_kwargs = dict(conv1_filters=6, conv2_filters=8, fc_units=16,
                      embed_dim=3, dropout_rate=0.0, noise_sigma=0.0)
    cfg_kwargs.update(overrides)
    cfg = EncoderConfig(**cfg_kwargs)
    return init_model(cfg, side, seed)


def test_init_deterministic():
    m1, m2 = small_model(7), small_model(7)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])


def test_init_rejects_tiny_inputs():
    cfg = small_check_config(3)
    for side in (1, 2):  # two 2x2 valid convolutions need side >= 3
        with pytest.raises(ValueError, match="too small"):
            init_model(cfg, side, 0)
    init_model(cfg, 3, 0)  # smallest legal side


def test_init_weights_fill_their_fan_in_bound():
    # uniform in +-sqrt(6 / fan_in): fan_in is C*k*k for a conv weight
    # (out, C, k, k) and the row count for a dense weight (in, out)
    cfg = EncoderConfig(conv1_filters=7, conv2_filters=19, filter_size=3)
    model = init_model(cfg, 6, 0)  # conv2 leaves a 2x2 image
    fan_in = {"conv1_w": 1 * 3 * 3, "conv2_w": 7 * 3 * 3,
              "fc1_w": 19 * 2 * 2, "fc2_w": cfg.fc_units}
    for name, n in fan_in.items():
        bound = np.sqrt(6.0 / n)
        top = np.abs(model.params[name]).max()
        assert 0.9 * bound <= top <= bound, name


def test_embed_dim_sets_output_width():
    rng = np.random.default_rng(0)
    for d in (3, 10):
        model = small_model(embed_dim=d)
        e = encode(model, rand_image(4, rng))
        assert e.shape == (d,)


def test_embeddings_unit_norm():
    rng = np.random.default_rng(1)
    model = small_model()
    for _ in range(100):
        e = encode(model, rand_image(4, rng))
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-9


def test_train_mode_unit_norm():
    rng = np.random.default_rng(2)
    model = small_model(dropout_rate=0.25, noise_sigma=0.1)
    for _ in range(20):
        e = _forward(model, rand_image(4, rng)[None], rng)[0][0]
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-9


def test_inference_deterministic():
    rng = np.random.default_rng(3)
    model = small_model()
    img = rand_image(4, rng)
    np.testing.assert_array_equal(encode(model, img), encode(model, img))


def test_different_images_embed_differently():
    rng = np.random.default_rng(4)
    model = small_model()
    a, b = rand_image(4, rng), rand_image(4, rng)
    assert np.linalg.norm(encode(model, a) - encode(model, b)) > 1e-6


def test_side_mismatch_rejected():
    rng = np.random.default_rng(6)
    model = small_model(side=4)
    with pytest.raises(ValueError, match="side"):
        encode(model, rand_image(5, rng))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["margin_alpha", "noise_sigma", "dropout_rate"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        EncoderConfig(**{field: value})


# --- triplet loss -----------------------------------------------------------

def test_loss_boundary_zero():
    # ea == ep and the negative gap exactly equals alpha: loss is 0
    ea = np.array([1.0, 0.0])
    en = np.array([1.0 - 0.1, np.sqrt(1 - (1 - 0.1) ** 2)])
    alpha = float(((ea - en) ** 2).sum())
    assert triplet_loss(ea, ea.copy(), en, alpha) == 0.0


def test_loss_all_equal_gives_alpha():
    e = np.array([0.6, 0.8])
    assert triplet_loss(e, e, e, 0.2) == pytest.approx(0.2)


def test_loss_hand_computed_case_hinges_to_zero():
    ea, ep, en = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])
    # raw = 2 - 4 + 0.2 = -1.8 -> hinged to 0
    assert triplet_loss(ea, ep, en, 0.2) == 0.0


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        triplet_loss(np.ones(3), np.ones(3), np.ones(4), 0.2)


@pytest.mark.parametrize("alpha", [-0.1, math.nan, math.inf])
def test_loss_rejects_bad_alpha(alpha):
    e = np.array([0.6, 0.8])
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        triplet_loss(e, e, e, alpha)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_loss_bounds_for_unit_vectors(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 11))
    ea, ep, en = (v / np.linalg.norm(v) for v in rng.normal(size=(3, d)))
    alpha = float(rng.uniform(0, 1))
    loss = triplet_loss(ea, ep, en, alpha)
    assert 0.0 <= loss <= alpha + 4.0 + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_loss_zero_when_margin_satisfied(seed):
    rng = np.random.default_rng(seed)
    ea, ep = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 4)))
    alpha = 0.3
    dp = float(((ea - ep) ** 2).sum())
    en = -ea  # farthest point on the sphere: dn = 4
    if dp + alpha <= 4.0:
        assert triplet_loss(ea, ep, en, alpha) == 0.0


# --- training step ----------------------------------------------------------

def fixed_batch(side, rng, n=4):
    # triplet by triplet, anchor/positive/negative: (3, n, side*side)
    return rng.random((n, 3, side * side)).swapaxes(0, 1)


def test_train_step_inactive_hinge_leaves_params():
    rng = np.random.default_rng(7)
    model = small_model(margin_alpha=0.0)
    # alpha=0: a triplet with identical anchor/positive has raw = -dn <= 0
    img = rand_image(4, rng)
    other = rand_image(4, rng)
    batch = np.stack([img, img, other])[:, None, :]
    before = {k: v.copy() for k, v in model.params.items()}
    _, _, loss = train_step(model, batch, AdamState(), np.random.default_rng(8))
    assert loss == 0.0
    for name in before:
        np.testing.assert_array_equal(model.params[name], before[name])


def test_train_step_deterministic():
    results = []
    for _ in range(2):
        rng = np.random.default_rng(9)
        model = small_model(seed=1, dropout_rate=0.25, noise_sigma=0.1)
        opt = AdamState()
        step_rng = np.random.default_rng(10)
        for _ in range(5):
            batch = fixed_batch(4, rng)
            model, opt, _ = train_step(model, batch, opt, step_rng)
        results.append(model)
    for name in results[0].params:
        np.testing.assert_array_equal(results[0].params[name],
                                      results[1].params[name])


def test_train_step_reduces_loss_on_repeated_batch():
    rng = np.random.default_rng(11)
    model = small_model(seed=2)
    batch = fixed_batch(4, rng, n=8)
    opt = AdamState(lr=1e-2)
    step_rng = np.random.default_rng(12)
    first = None
    for _ in range(60):
        model, opt, loss = train_step(model, batch, opt, step_rng)
        if first is None:
            first = loss
    assert loss < first


def test_train_step_rejects_empty_batch():
    model = small_model()
    with pytest.raises(ValueError, match="empty"):
        train_step(model, np.empty((3, 0, 16)), AdamState(), np.random.default_rng(0))


def test_batch_gradient_is_the_mean_over_its_active_triplets(monkeypatch):
    # a batch's gradient sums its active triplets' gradients and divides by
    # the batch size, not by the active count
    cfg = small_check_config(3)
    model = init_model(cfg, 4, 0)
    applied = []
    monkeypatch.setattr(nn, "adam_update", lambda params, grads, state: applied.append(grads))
    rng = np.random.default_rng(30)
    active, inactive = [], []
    while len(active) < 2 or not inactive:
        t = rng.random((3, 16))
        (active if triplet_loss(*encode_batch(model, t), cfg.margin_alpha) > 0.0
         else inactive).append(t)
    t1, t3, t2 = active[0], active[1], inactive[0]
    for t in (t1, t2, t3):
        train_step(model, t[:, None], AdamState(), rng)
    assert len(applied) == 2  # the inactive triplet alone updates nothing
    g1, g3 = applied
    train_step(model, np.stack([t1, t2, t3], axis=1), AdamState(), rng)
    assert len(applied) == 3
    for name, got in applied[2].items():
        want = (g1[name] + g3[name]) / 3
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def office_batches(n):
    """n default-size (batch 32) training batches on office-like CI 0, and
    the rows' width."""
    ds, _ = generate(preset("office-like", 0))
    tr, _ = split_by_ci(ds, 0, 6, 0)
    rows = normalize_rows(tr.rssi)
    arrays = (rows, rp_members(tr), build_pmf_table(tr.floorplan))
    rng = np.random.default_rng(0)
    return [make_batch(*arrays, 32, 0.9, rng)[1] for _ in range(n)], rows.shape[1]


def test_fused_layers_match_reference_step(monkeypatch):
    batches, width = office_batches(3)

    def run():
        model = init_model(EncoderConfig(), image_side(width), 19)
        opt, rng = AdamState(), np.random.default_rng(20)
        for batch in batches:
            train_step(model, batch, opt, rng)
        return model, opt

    model, opt = run()
    monkeypatch.setattr(nn, "relu_dropout_forward", reference_relu_dropout_forward)
    monkeypatch.setattr(nn, "relu_dropout_backward", reference_relu_dropout_backward)
    ref_model, ref_opt = run()
    assert opt.step == ref_opt.step == 3
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], ref_model.params[name])
        np.testing.assert_array_equal(opt.m[name], ref_opt.m[name])
        np.testing.assert_array_equal(opt.v[name], ref_opt.v[name])


def test_train_step_peak_memory():
    # numpy reports its buffers to tracemalloc, so the peak is host-independent;
    # step 2 is measured because step 1 also allocates the Adam moments
    (first, second), width = office_batches(2)
    model = init_model(EncoderConfig(), image_side(width), 21)
    opt, rng = AdamState(), np.random.default_rng(22)
    train_step(model, first, opt, rng)
    tracemalloc.start()
    try:
        train_step(model, second, opt, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6, f"train_step peak {peak / 1e6:.1f} MB"


def test_train_step_peak_memory_on_two_workers(monkeypatch):
    # a backward's weight and input gradients run side by side, so the
    # arrays of both halves are alive at once, on any host
    monkeypatch.setattr(nn, "WORKERS", 2)
    test_train_step_peak_memory()


def test_train_step_peak_memory_on_one_worker(monkeypatch):
    # in turn, each backward half makes its arrays just before it runs, so
    # conv2's 7 MB patch matrix is gone before the input gradient's arrays
    # are made: about 25.0 MB, against 29.6 MB with both halves' arrays
    # made first
    monkeypatch.setattr(nn, "WORKERS", 1)
    (first, second), width = office_batches(2)
    model = init_model(EncoderConfig(), image_side(width), 21)
    opt, rng = AdamState(), np.random.default_rng(22)
    train_step(model, first, opt, rng)
    tracemalloc.start()
    try:
        train_step(model, second, opt, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26e6, f"one-worker train_step peak {peak / 1e6:.1f} MB"


def test_encode_batch_peak_memory():
    # one block: conv2 gathers its patches in chunks of about nn._BLOCK_BYTES,
    # not as one 7 MB patch matrix
    ds, _ = generate(preset("office-like", 0))
    tr, _ = split_by_ci(ds, 0, 6, 0)
    rows = normalize_rows(tr.rssi)[:BLOCK_ROWS]
    model = init_model(EncoderConfig(), image_side(rows.shape[1]), 21)
    encode_batch(model, rows)
    tracemalloc.start()
    try:
        encode_batch(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6, f"encode_batch peak {peak / 1e6:.1f} MB"


def test_one_row_encode_batch_peak_memory():
    # a one-scan call sizes its workspace to its one row, not to BLOCK_ROWS
    ds, _ = generate(preset("office-like", 0))
    tr, _ = split_by_ci(ds, 0, 6, 0)
    rows = normalize_rows(tr.rssi)[:1]
    model = init_model(EncoderConfig(), image_side(rows.shape[1]), 21)
    encode_batch(model, rows)
    tracemalloc.start()
    try:
        encode_batch(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, f"one-row encode_batch peak {peak / 1e6:.2f} MB"


def test_encode_batch_peak_memory_on_two_workers(monkeypatch):
    # each worker holds one block's layers at a time; together they stay
    # within a training step's bound, as BLOCK_ROWS' comment says
    monkeypatch.setattr(nn, "WORKERS", 2)
    ds, _ = generate(preset("office-like", 0))
    tr, _ = split_by_ci(ds, 0, 6, 0)
    rows = normalize_rows(tr.rssi)
    assert len(rows) == 294
    model = init_model(EncoderConfig(), image_side(rows.shape[1]), 21)
    encode_batch(model, rows)
    tracemalloc.start()
    try:
        encode_batch(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6, f"encode_batch peak {peak / 1e6:.1f} MB"


# the default encoder and the 7/19-filter, 3x3 one that tools/model_digests.py trains
WORKER_CONFIGS = {"default": EncoderConfig(),
                  "7-19-k3": EncoderConfig(conv1_filters=7, conv2_filters=19, filter_size=3)}


@pytest.mark.parametrize("config", WORKER_CONFIGS.values(), ids=WORKER_CONFIGS.keys())
@pytest.mark.parametrize("m", [1, 95, 96, 97, 294])
def test_encode_batch_bits_do_not_depend_on_workers(config, m, monkeypatch):
    # every block keeps its shape, so each GEMM keeps its bits; 3 workers
    # is more threads than a 2-CPU host has, and a short switch interval
    # interleaves them often
    rows = np.random.default_rng(m).random((m, 50))
    model = init_model(config, image_side(50), seed=m)
    monkeypatch.setattr(nn, "WORKERS", 1)
    want = encode_batch(model, rows)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3):
            monkeypatch.setattr(nn, "WORKERS", workers)
            np.testing.assert_array_equal(encode_batch(model, rows), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("config", WORKER_CONFIGS.values(), ids=WORKER_CONFIGS.keys())
def test_training_bits_do_not_depend_on_workers(config, tmp_path, monkeypatch):
    # each backward's two halves, the conv forward's patch blocks and Adam's
    # row blocks keep their GEMMs and elementwise passes whatever thread runs
    # them, so one step's params, m and v and a whole train()'s model bytes
    # are those of one worker
    (batch,), width = office_batches(1)
    ds, _ = generate(preset("office-like", 0))
    tr, _ = split_by_ci(ds, 0, 6, 0)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn, "WORKERS", workers)
            model, opt = init_model(config, image_side(width), 23), AdamState()
            train_step(model, batch, opt, np.random.default_rng(24))
            assert opt.step == 1
            path = tmp_path / f"{workers}.stne"
            save_model(*train(tr, TrainConfig(encoder=config, epochs=1), 25), path)
            runs.append(([model.params, opt.m, opt.v], path.read_bytes()))
    finally:
        sys.setswitchinterval(interval)
    (want_arrays, want_bytes), *rest = runs
    for arrays, model_bytes in rest:
        for got, want in zip(arrays, want_arrays):
            for name in PARAM_ORDER:
                np.testing.assert_array_equal(got[name], want[name])
        assert model_bytes == want_bytes


def test_every_thread_runs_convs_in_caller_buffers(monkeypatch):
    # every conv, the calling thread's included, writes into the workspace
    # that the calling thread made for its thread: each thread reuses one
    # output and one patch buffer per conv for all its blocks, no block
    # allocates its layers afresh, and the bits stay those of one worker
    model = init_model(EncoderConfig(), 8, seed=5)
    rows = np.random.default_rng(6).random((294, 50))
    monkeypatch.setattr(nn, "WORKERS", 1)
    want = encode_batch(model, rows)
    conv = nn.conv2d_forward
    for workers in (1, 2):
        monkeypatch.setattr(nn, "WORKERS", workers)
        seen = []

        def recording_conv(x, w, b):
            out, work = nn._into.bufs
            seen.append((threading.get_ident(), x.shape[1],
                         None if out is None else out.ctypes.data,
                         None if work is None else work.ctypes.data))
            return conv(x, w, b)

        monkeypatch.setattr(nn, "conv2d_forward", recording_conv)
        np.testing.assert_array_equal(encode_batch(model, rows), want)
        monkeypatch.setattr(nn, "conv2d_forward", conv)
        assert len(seen) == 8  # 4 blocks, 2 convs each
        assert all(out is not None and work is not None for _, _, out, work in seen)
        # one (output, patch) address pair per thread and conv
        buffers = {(thread, channels): set() for thread, channels, _, _ in seen}
        for thread, channels, out, work in seen:
            buffers[thread, channels].add((out, work))
        assert len(buffers) == 2 * workers
        assert all(len(pairs) == 1 for pairs in buffers.values())


@pytest.mark.parametrize("bad_block", [2, 3])
def test_collapsed_block_raises_on_any_worker(bad_block, monkeypatch):
    # an all-zero row through zero biases embeds to zero; the error is the
    # same whether the calling thread (block 2 of 4) or a pool thread
    # (block 3) meets it, and no call adds a thread to those of the live
    # pool, which the first call on two workers makes
    model = init_model(EncoderConfig(), 8, seed=3)
    rows = np.random.default_rng(4).random((294, 50))
    rows[bad_block * BLOCK_ROWS] = 0.0
    errors = []
    for workers in (1, 2):
        monkeypatch.setattr(nn, "WORKERS", workers)
        encode_batch(model, rows[:bad_block * BLOCK_ROWS])
        threads = threading.active_count()
        with pytest.raises(FloatingPointError) as err:
            encode_batch(model, rows)
        errors.append(str(err.value))
        assert threading.active_count() == threads
        encode_batch(model, rows[:bad_block * BLOCK_ROWS])
        assert threading.active_count() == threads
    assert errors[0] == errors[1] == "pre-normalization embedding collapsed to zero"


# --- input width and padding ------------------------------------------------

def test_noise_never_reaches_padding(monkeypatch):
    # 10 APs in a side-4 model: conv1 sees the noisy rows, zero-padded to 16
    seen = []
    conv = nn.conv2d_forward

    def recording_conv(x, w, b):
        seen.append(x.copy())
        return conv(x, w, b)

    monkeypatch.setattr(nn, "conv2d_forward", recording_conv)
    rng = np.random.default_rng(15)
    model = small_model(noise_sigma=0.3)
    batch = rng.uniform(0.2, 0.8, size=(3, 4, 10))
    train_step(model, batch, AdamState(), np.random.default_rng(16))
    x = seen[0].reshape(12, 16)  # conv1 input: 3 x 4 rows, 1 channel, 4 x 4
    assert np.all(x[:, 10:] == 0.0)
    assert np.all(x[:, :10] != batch.reshape(12, 10))  # noise on every AP


def test_encode_batch_runs_in_blocks(monkeypatch):
    # one worker, so the calls come in block order
    monkeypatch.setattr(nn, "WORKERS", 1)
    seen = []
    conv = nn.conv2d_forward

    def recording_conv(x, w, b):
        seen.append(len(x))
        return conv(x, w, b)

    model = small_model(side=4)
    rows = np.random.default_rng(18).random((250, 16))
    parts = np.concatenate([encode_batch(model, rows[lo:lo + BLOCK_ROWS])
                            for lo in range(0, len(rows), BLOCK_ROWS)])
    monkeypatch.setattr(nn, "conv2d_forward", recording_conv)
    np.testing.assert_array_equal(encode_batch(model, rows), parts)
    assert seen == [96, 96, 96, 96, 58, 58]  # conv1 and conv2 of each block


@pytest.mark.parametrize("width", [5, 9, 50])
@pytest.mark.parametrize("m", [1, 96, 97, 250])
def test_encode_batch_matches_training_forward(width, m):
    # the cache-free inference forward gives the bits of the training
    # forward with noise and dropout off, block by block, with writable
    # weights and with read-only ones; the model keeps the default config,
    # which turns both on, so inference must ignore them
    rows = np.random.default_rng(width * 1000 + m).random((m, width))
    model = init_model(EncoderConfig(), image_side(width), seed=m)
    quiet = replace(model, config=replace(model.config, dropout_rate=0.0, noise_sigma=0.0))
    want = np.concatenate([_forward(quiet, rows[lo:lo + BLOCK_ROWS], None)[0]
                           for lo in range(0, m, BLOCK_ROWS)])
    np.testing.assert_array_equal(encode_batch(model, rows), want)
    for p in model.params.values():
        p.setflags(write=False)
    np.testing.assert_array_equal(encode_batch(model, rows), want)


def test_encode_batch_returns_its_own_array():
    # a second call must not write into the first call's result
    model = small_model(side=4)
    rows = np.random.default_rng(19).random((2, 97, 16))
    first = encode_batch(model, rows[0])
    kept = first.copy()
    second = encode_batch(model, rows[1])
    np.testing.assert_array_equal(first, kept)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("n", [5, 9, 10, 50])
def test_unpadded_rows_embed_like_pixel_rows(n):
    r = np.random.default_rng(n).uniform(-100.0, 0.0, size=(7, n))
    model = small_model(side=image_side(n))
    np.testing.assert_array_equal(encode_batch(model, normalize_rows(r)),
                                  encode_batch(model, pad_square(normalize_rows(r))))


@pytest.mark.parametrize("width", [10, 16])
def test_encode_batch_of_no_rows(width):
    # zero rows embed like any other count; a 1-D input is still refused
    model = small_model(side=4)
    out = encode_batch(model, np.empty((0, width)))
    assert out.shape == (0, 3) and out.dtype == np.float64
    with pytest.raises(ValueError, match="side"):
        encode_batch(model, [])


def test_width_must_fit_model_side():
    model = small_model(side=4)  # widths 10..16 make a 4 x 4 image
    rng = np.random.default_rng(17)
    for w in (10, 16):
        assert encode_batch(model, rng.random((2, w))).shape == (2, 3)
        train_step(model, rng.random((3, 2, w)), AdamState(), rng)
    for w in (9, 17):
        with pytest.raises(ValueError, match="side"):
            encode_batch(model, rng.random((2, w)))
        with pytest.raises(ValueError, match="side"):
            train_step(model, rng.random((3, 2, w)), AdamState(), rng)


# --- gradient check ---------------------------------------------------------

def test_gradient_check_small_models():
    for seed in range(3):
        err = run_gradcheck(seed=seed, side=4, embed_dim=3)
        assert err <= 1e-4


def test_gradient_check_various_sides():
    for side in (3, 5):
        err = run_gradcheck(seed=1, side=side, embed_dim=3)
        assert err <= 1e-4


def test_gradient_check_reaches_every_conv_weight_layout():
    # the check perturbs entries by index, so a C-order conv weight and a
    # gemm_layout one (not C-contiguous) give the same, passing error
    cfg = small_check_config(3)
    laid = init_model(cfg, 4, 2)
    c_order = init_model(cfg, 4, 2)
    for name in ("conv1_w", "conv2_w"):
        c_order.params[name] = np.ascontiguousarray(c_order.params[name])
        assert not laid.params[name].flags.c_contiguous
    rng = np.random.default_rng([2, 0])
    t = random_check_triplet(4, rng)
    while triplet_loss(*encode_batch(laid, t), cfg.margin_alpha) <= 1e-3:
        t = random_check_triplet(4, rng)
    err = gradient_check(laid, t)
    assert err <= 1e-4
    assert gradient_check(c_order, t) == err


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("laid_out", [False, True])
def test_params_keep_the_write_flag_they_are_built_from(dtype, laid_out):
    # the constructor gives each parameter its source's write flag, whether
    # the cast and layout copy it or not
    model = small_model()
    for writeable in (False, True):
        params = {}
        for name, p in model.params.items():
            params[name] = np.array(p, dtype=dtype, order="K" if laid_out else "C")
            params[name].setflags(write=writeable)
        built = EncoderModel(model.config, model.input_side, params)
        for name, p in built.params.items():
            assert p.dtype == np.float64 and p.flags.writeable == writeable, name
            copied = dtype == np.float32 or (p.ndim == 4 and not laid_out)
            assert np.shares_memory(p, params[name]) != copied, name


def test_model_lays_out_its_own_param_dict():
    model = small_model()
    params = {name: np.ascontiguousarray(p) for name, p in model.params.items()}
    copy = EncoderModel(model.config, model.input_side, params)
    assert copy.params is not params
    for name, p in params.items():
        assert p.flags.c_contiguous and copy.params[name].flags.c_contiguous == (p.ndim < 4)
        np.testing.assert_array_equal(copy.params[name], p)


def test_gradient_check_refuses_stochastic_model():
    rng = np.random.default_rng(13)
    model = small_model(dropout_rate=0.25)
    t = random_check_triplet(4, rng)
    with pytest.raises(StochasticModelError):
        gradient_check(model, t)
    model2 = small_model(noise_sigma=0.1)
    with pytest.raises(StochasticModelError):
        gradient_check(model2, t)


def test_gradient_check_reports_inactive_hinge():
    rng = np.random.default_rng(14)
    model = small_model(margin_alpha=0.0)
    img = rand_image(4, rng)
    other = rand_image(4, rng)
    # identical anchor/positive with alpha=0 keeps the hinge inactive
    t = np.stack([img, img, other])
    with pytest.raises(HingeInactiveError):
        gradient_check(model, t)
