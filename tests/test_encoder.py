import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_nn import reference_relu_dropout_backward, reference_relu_dropout_forward

from driftloc import nn
from driftloc.cli import random_check_triplet, run_gradcheck
from driftloc.data import split_by_ci
from driftloc.encoder import (BLOCK_ROWS, EncoderConfig, EncoderModel, _forward, _train_forward,
                              encode_batch, gradient_check, init_model, small_check_config,
                              train_step, triplet_loss)
from driftloc.errors import HingeInactiveError, StochasticModelError
from driftloc.nn import AdamState
from driftloc.preprocess import image_side, normalize_rows, pixel_rows
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
    cfg = small_check_config()
    for side in (1, 2):  # two 2x2 valid convolutions need side >= 3
        with pytest.raises(ValueError, match="too small"):
            init_model(cfg, side, 0)
    init_model(cfg, 3, 0)  # smallest legal side


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
        e = _train_forward(model, rand_image(4, rng)[None], rng)[0][0]
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
    # the cache-free inference forward gives the training forward's bits,
    # block by block, with writable weights and with read-only ones
    rows = np.random.default_rng(width * 1000 + m).random((m, width))
    model = init_model(EncoderConfig(), image_side(width), seed=m)
    want = np.concatenate([_forward(model, rows[lo:lo + BLOCK_ROWS], train=False, rng=None)[0]
                           for lo in range(0, m, BLOCK_ROWS)])
    np.testing.assert_array_equal(encode_batch(model, rows), want)
    for p in model.params.values():
        p.setflags(write=False)
    np.testing.assert_array_equal(encode_batch(model, rows), want)


@pytest.mark.parametrize("n", [5, 9, 10, 50])
def test_unpadded_rows_embed_like_pixel_rows(n):
    r = np.random.default_rng(n).uniform(-100.0, 0.0, size=(7, n))
    model = small_model(side=image_side(n))
    np.testing.assert_array_equal(encode_batch(model, normalize_rows(r)),
                                  encode_batch(model, pixel_rows(r)))


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
    cfg = small_check_config()
    laid = init_model(cfg, 4, 2)
    c_order = init_model(cfg, 4, 2)
    for name in ("conv1_w", "conv2_w"):
        c_order.params[name] = np.ascontiguousarray(c_order.params[name])
        assert not laid.params[name].flags.c_contiguous
    rng = np.random.default_rng([2, 0])
    t = random_check_triplet(4, rng)
    while triplet_loss(*encode_batch(laid, t), cfg.margin_alpha) <= 1e-3:
        t = random_check_triplet(4, rng)
    err = gradient_check(laid, t, cfg.margin_alpha)
    assert err <= 1e-4
    assert gradient_check(c_order, t, cfg.margin_alpha) == err


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
        gradient_check(model, t, 0.2)
    model2 = small_model(noise_sigma=0.1)
    with pytest.raises(StochasticModelError):
        gradient_check(model2, t, 0.2)


def test_gradient_check_reports_inactive_hinge():
    rng = np.random.default_rng(14)
    model = small_model()
    img = rand_image(4, rng)
    other = rand_image(4, rng)
    # identical anchor/positive with alpha=0 keeps the hinge inactive
    t = np.stack([img, img, other])
    with pytest.raises(HingeInactiveError):
        gradient_check(model, t, 0.0)
