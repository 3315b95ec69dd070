import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftloc.augment import apply_ap_dropout, draw_turnoff_fraction, noise_flat
from driftloc.localizer import TrainConfig
from driftloc.preprocess import image_from_rssi


def image_with_visible(n_visible, n_real=16):
    rssi = np.full(n_real, -100.0)
    rssi[:n_visible] = -50.0
    return image_from_rssi(rssi)


def test_turnoff_degenerate_interval():
    rng = np.random.default_rng(0)
    assert all(draw_turnoff_fraction(0.0, rng) == 0.0 for _ in range(100))


def test_turnoff_bounded():
    rng = np.random.default_rng(1)
    draws = [draw_turnoff_fraction(0.90, rng) for _ in range(10_000)]
    assert min(draws) >= 0.0 and max(draws) <= 0.90


def test_turnoff_monte_carlo_mean():
    # mean of U(0, 0.9) is 0.45
    rng = np.random.default_rng(2)
    draws = np.array([draw_turnoff_fraction(0.90, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.45) <= 0.01


def test_dropout_zero_fraction_identity():
    img = image_with_visible(10)
    out = apply_ap_dropout(img, 16, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, img)


def test_dropout_exact_count():
    img = image_with_visible(10)
    out = apply_ap_dropout(img, 16, 0.9, np.random.default_rng(3))
    assert int((img > 0).sum()) == 10
    assert int((out > 0).sum()) == 1  # exactly 9 zeroed


def test_dropout_all_zero_noop():
    img = image_from_rssi(np.full(9, -100.0))
    out = apply_ap_dropout(img, 9, 0.7, np.random.default_rng(4))
    np.testing.assert_array_equal(out, img)


def test_dropout_count_floor_randomized():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n_real = int(rng.integers(1, 30))
        n_vis = int(rng.integers(0, n_real + 1))
        p = float(rng.random())
        rssi = np.full(n_real, -100.0)
        vis = rng.choice(n_real, size=n_vis, replace=False)
        rssi[vis] = rng.integers(-99, 0, size=n_vis)
        img = image_from_rssi(rssi)
        v = int((img > 0).sum())
        out = apply_ap_dropout(img, n_real, p, rng)
        newly_zeroed = v - int((out > 0).sum())
        assert newly_zeroed == math.floor(p * v)


@given(st.integers(0, 2**32 - 1), st.floats(0, 1))
@settings(max_examples=50)
def test_dropout_zero_set_superset(seed, p):
    rng = np.random.default_rng(seed)
    rssi = rng.integers(-100, 1, size=12).astype(float)
    img = image_from_rssi(rssi)
    out = apply_ap_dropout(img, 12, p, rng)
    before = set(np.flatnonzero(img == 0.0))
    after = set(np.flatnonzero(out == 0.0))
    assert before <= after
    assert out.shape == img.shape


def test_dropout_deterministic():
    img = image_with_visible(12)
    a = apply_ap_dropout(img, 16, 0.5, np.random.default_rng(42))
    b = apply_ap_dropout(img, 16, 0.5, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_dropout_never_touches_padding():
    # 5 real APs in a 3x3 image: padding positions 5..8 must stay zero
    img = image_from_rssi(np.full(5, -20.0))
    out = apply_ap_dropout(img, 5, 1.0, np.random.default_rng(0))
    assert np.all(out[5:] == 0.0)
    assert np.all(out[:5] == 0.0)  # p=1 removes every visible AP
    # padding is never a candidate, even when it is not zero
    row = np.ones(9)
    out = apply_ap_dropout(row, 5, 1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, [0, 0, 0, 0, 0, 1, 1, 1, 1])


def test_noise_zero_sigma_identity():
    img = image_with_visible(9)
    out = noise_flat(img, 16, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, img)


def test_noise_sample_std():
    # mid-range pixels never clamp at sigma=0.1, so the sample std of the
    # deviations estimates sigma directly
    rng = np.random.default_rng(6)
    img = image_from_rssi(np.full(99856, -50.0))  # 316 x 316, ~1e5 pixels
    out = noise_flat(img, 99856, 0.10, rng)
    dev = out - img
    assert abs(dev.std() - 0.10) <= 0.002


def test_noise_clamps_to_unit_interval():
    img = image_from_rssi(np.full(16, 0.0))  # all pixels at 1.0
    out = noise_flat(img, 16, 5.0, np.random.default_rng(7))
    assert out.max() <= 1.0 and out.min() >= 0.0


def test_noise_leaves_padding():
    img = image_from_rssi(np.full(5, -20.0))
    out = noise_flat(img, 5, 0.3, np.random.default_rng(8))
    assert np.all(out[5:] == 0.0)
    assert np.any(out[:5] != img[:5])


def test_noise_deterministic():
    img = image_with_visible(9)
    a = noise_flat(img, 16, 0.1, np.random.default_rng(9))
    b = noise_flat(img, 16, 0.1, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_config_validation():
    # the turn-off bound is a training setting
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="p_upper"):
            TrainConfig(p_upper=bad)
    assert TrainConfig().p_upper == 0.90
