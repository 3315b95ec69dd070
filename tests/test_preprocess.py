import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftloc.data import Fingerprint
from driftloc.encoder import encode_batch, init_model, small_check_config
from driftloc.preprocess import (image_from_rssi, image_side, normalize_rows,
                                 pad_square, to_image)


@pytest.mark.parametrize("dbm,expected", [(-100.0, 0.0), (0.0, 1.0), (-50.0, 0.5)])
def test_normalize_endpoints_and_midpoint(dbm, expected):
    assert normalize_rows([[dbm]])[0, 0] == expected


def test_normalize_clamps():
    assert normalize_rows([[-150.0]])[0, 0] == 0.0
    assert normalize_rows([[20.0]])[0, 0] == 1.0


def test_normalize_rejects_non_finite():
    with pytest.raises(ValueError):
        normalize_rows([[float("inf")]])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_normalize_rows_has_np_clips_bytes(values):
    # byte equality, so a -0.0 in place of +0.0 fails too
    x = np.array([values + [-100.0, 0.0, -150.0, 20.0]])
    assert normalize_rows(x).tobytes() == np.clip((x + 100) / 100, 0, 1).tobytes()


@given(st.floats(-100, 0), st.floats(-100, 0))
def test_normalize_monotone(a, b):
    if a <= b:
        assert normalize_rows([[a]])[0, 0] <= normalize_rows([[b]])[0, 0]


@pytest.mark.parametrize("n,side,pads", [(5, 3, 4), (9, 3, 0), (10, 4, 6)])
def test_padding_to_next_square(n, side, pads):
    flat = image_from_rssi(np.full(n, -50.0))
    assert flat.shape == (side * side,)
    assert np.all(flat[n:] == 0.0)
    assert flat.size - n == pads
    assert np.all(flat[:n] == 0.5)


def test_already_square_keeps_values():
    rssi = np.array([-100.0, -80, -60, -40, -20, 0, -10, -30, -100])
    flat = image_from_rssi(rssi)
    assert flat.shape == (9,)
    # -100 entries are zero pixels, indistinguishable from padding
    assert flat[0] == 0.0 and flat[8] == 0.0
    assert flat[5] == 1.0


def test_to_image_matches_vector_path():
    fp = Fingerprint(0, 0, np.array([-55.0, -100.0, -20.0, -75.0, -60.0]))
    flat = to_image(fp)
    np.testing.assert_array_equal(flat[:5], np.clip((fp.rssi + 100) / 100, 0, 1))
    np.testing.assert_array_equal(flat, pad_square(normalize_rows(fp.rssi[None, :]))[0])


@given(st.lists(st.integers(-100, 0), min_size=1, max_size=40))
def test_position_mapping(values):
    # registry position i lands at pixel (i // s, i % s)
    rssi = np.array(values, dtype=float)
    s = image_side(len(values))
    assert (s - 1) ** 2 < len(values) <= s * s
    img = image_from_rssi(rssi).reshape(s, s)
    cells = normalize_rows(rssi[:, None])[:, 0]  # each value as a one-cell row
    for i in range(len(values)):
        assert img[i // s, i % s] == cells[i]


def test_image_invariants_enforced():
    # rows built from dBm always hold [0, 1] pixels and zero padding
    flat = pad_square(normalize_rows(np.array([[-150.0, 20.0, -50.0, 0.0, -100.0]])))[0]
    np.testing.assert_array_equal(flat, [0.0, 1.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    # the encoder refuses rows that break the range
    model = init_model(small_check_config(3), 3, 0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        encode_batch(model, [np.r_[0.5, 2.0, np.zeros(7)]])
    for bad in (np.array([]), np.zeros((2, 2)), np.float64(-50.0)):
        with pytest.raises(ValueError):
            image_from_rssi(bad)


def test_pixels_read_only():
    img = image_from_rssi(np.full(4, -50.0))
    with pytest.raises(ValueError):
        img[0] = 0.9
