"""Raw dBm fingerprints -> normalized rows, and the encoder's image layout.

Each RSSI vector is mapped linearly from [-100, 0] dBm onto [0, 1]
(-100 -> 0, 0 -> 1); many scans form an (m, n_aps) float64 array, the
rows training and queries hand to the encoder.  :func:`pad_square` zero-
pads each row to the next perfect square s*s, the row-major s x s image
the encoder reads, registry position i at pixel (i // s, i % s).  A
missing AP and a padded position are both exactly 0: the encoder cannot
tell a removed transmitter from padding, which is what makes AP-dropout
augmentation meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from .data import RSSI_MAX, RSSI_MISSING, Fingerprint


def normalize_rssi(dbm: float) -> float:
    """Map dBm to the unit interval: -100 -> 0 (weakest), 0 -> 1 (strongest);
    :func:`normalize_rows` of one cell."""
    return float(normalize_rows([[dbm]])[0, 0])


def image_side(n: int) -> int:
    """Smallest s with s*s >= n."""
    if n < 1:
        raise ValueError("need at least one AP position")
    return math.isqrt(n - 1) + 1


def normalize_rows(rssi: np.ndarray) -> np.ndarray:
    """Map an (m, n) dBm array onto [0, 1], linearly with clamping, so
    out-of-range inputs are absorbed rather than propagated."""
    rssi = np.asarray(rssi, dtype=np.float64)
    if rssi.ndim != 2 or rssi.shape[1] == 0:
        raise ValueError("rssi rows must form a 2-D array with at least one column")
    if not np.all(np.isfinite(rssi)):
        raise ValueError("rssi values must be finite")
    return np.clip((rssi - RSSI_MISSING) / (RSSI_MAX - RSSI_MISSING), 0.0, 1.0)


def pad_square(rows: np.ndarray) -> np.ndarray:
    """Zero-pad each row of an (m, n) array to s*s entries, s =
    image_side(n): the row-major flat s x s images of the m rows."""
    m, n = rows.shape
    s = image_side(n)
    flat = np.zeros((m, s * s), dtype=np.float64)
    flat[:, :n] = rows
    return flat


def pixel_rows(rssi: np.ndarray) -> np.ndarray:
    """Normalize an (m, n) dBm array and zero-pad it: the read-only
    (m, s*s) images the encoder sees."""
    flat = pad_square(normalize_rows(rssi))
    flat.setflags(write=False)
    return flat


def image_from_rssi(rssi: np.ndarray) -> np.ndarray:
    """Pixel row of one dBm vector."""
    return pixel_rows([rssi])[0]


def to_image(fp: Fingerprint) -> np.ndarray:
    """Encoder input for one fingerprint: its pixel row."""
    return image_from_rssi(fp.rssi)
