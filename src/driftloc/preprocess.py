"""Raw dBm fingerprints -> normalized square images for the encoder.

Each RSSI vector is mapped linearly from [-100, 0] dBm onto [0, 1]
(-100 -> 0, 0 -> 1), padded with trailing zeros up to the next perfect
square, and reshaped row-major into an s x s image.  A missing AP and a
padded position are both exactly 0: the encoder cannot tell a removed
transmitter from padding, which is what makes AP-dropout augmentation
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Fingerprint


@dataclass(frozen=True, eq=False)
class FingerprintImage:
    """Square image form of a fingerprint.

    ``pixels`` is an s x s float64 array in [0, 1]; row-major position i
    corresponds to registry position i for i < n_real, and is zero padding
    for i >= n_real.
    """

    side: int
    pixels: np.ndarray
    n_real: int

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.shape != (self.side, self.side):
            raise ValueError(f"pixels shape {arr.shape} != ({self.side}, {self.side})")
        if self.n_real < 1 or self.n_real > self.side * self.side:
            raise ValueError("n_real out of range for image size")
        flat = arr.reshape(-1)
        if flat.min() < 0.0 or flat.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        if self.n_real < flat.size and np.any(flat[self.n_real:] != 0.0):
            raise ValueError("padding pixels must be exactly 0")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def flat(self) -> np.ndarray:
        """Row-major view of the pixels (length side**2)."""
        return self.pixels.reshape(-1)

    def with_flat(self, flat: np.ndarray) -> "FingerprintImage":
        """Same geometry, new pixel values."""
        return FingerprintImage(self.side, np.asarray(flat, dtype=np.float64).reshape(self.side, self.side), self.n_real)


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
    s = image_side(n): the row-major flat images of the m scans."""
    norm = normalize_rows(rssi)
    m, n = norm.shape
    s = image_side(n)
    flat = np.zeros((m, s * s), dtype=np.float64)
    flat[:, :n] = norm
    return flat


def image_from_rssi(rssi: np.ndarray) -> FingerprintImage:
    """Normalize a dBm vector and reshape it into a square image."""
    rssi = np.asarray(rssi, dtype=np.float64)
    if rssi.ndim != 1 or rssi.size == 0:
        raise ValueError("rssi must be a non-empty 1-D vector")
    s = image_side(rssi.size)
    flat = pixel_rows(rssi[None, :])[0]
    return FingerprintImage(side=s, pixels=flat.reshape(s, s), n_real=rssi.size)


def to_image(fp: Fingerprint) -> FingerprintImage:
    """Encoder input for one fingerprint (normalize, pad, reshape)."""
    return image_from_rssi(fp.rssi)
