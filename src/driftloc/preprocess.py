"""Raw dBm fingerprints -> normalized pixel rows for the encoder.

Each RSSI vector is mapped linearly from [-100, 0] dBm onto [0, 1]
(-100 -> 0, 0 -> 1) and padded with trailing zeros up to the next
perfect square s*s.  The result is a flat pixel row; reshaped row-major
it is the encoder's s x s image, with registry position i at pixel
(i // s, i % s).  Many scans form an (m, s*s) float64 array, the one form
the encoder consumes everywhere.  A missing AP and a padded position are
both exactly 0: the encoder cannot tell a removed transmitter from
padding, which is what makes AP-dropout augmentation meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Fingerprint


def normalize_rssi(dbm: float) -> float:
    """Map dBm to the unit interval: -100 -> 0 (weakest), 0 -> 1 (strongest).

    Linear with clamping, so out-of-range inputs are absorbed rather than
    propagated.
    """
    if not math.isfinite(dbm):
        raise ValueError("dbm must be finite")
    return min(1.0, max(0.0, (dbm + 100.0) / 100.0))


def image_side(n_real: int) -> int:
    """Smallest s with s*s >= n_real."""
    if n_real < 1:
        raise ValueError("need at least one AP position")
    return math.isqrt(n_real - 1) + 1


def normalize_rows(rssi: np.ndarray) -> np.ndarray:
    """Map an (m, n) dBm array onto [0, 1] row by row, as
    :func:`normalize_rssi` does for one value."""
    rssi = np.asarray(rssi, dtype=np.float64)
    if rssi.ndim != 2 or rssi.shape[1] == 0:
        raise ValueError("rssi rows must form a 2-D array with at least one column")
    if not np.all(np.isfinite(rssi)):
        raise ValueError("rssi values must be finite")
    return np.clip((rssi + 100.0) / 100.0, 0.0, 1.0)


def pixel_rows(rssi: np.ndarray) -> np.ndarray:
    """Normalize an (m, n) dBm array and zero-pad each row to s*s pixels,
    s = image_side(n): the row-major flat images of the m scans.  The
    result is read-only; augmentation works on copies."""
    norm = normalize_rows(rssi)
    m, n = norm.shape
    s = image_side(n)
    flat = np.zeros((m, s * s), dtype=np.float64)
    flat[:, :n] = norm
    flat.setflags(write=False)
    return flat


def image_from_rssi(rssi: np.ndarray) -> np.ndarray:
    """Pixel row of one dBm vector."""
    return pixel_rows([rssi])[0]


def to_image(fp: Fingerprint) -> np.ndarray:
    """Encoder input for one fingerprint: its pixel row."""
    return image_from_rssi(fp.rssi)
