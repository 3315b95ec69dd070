"""Training-time robustness transforms on pixel rows.

AP dropout emulates the future removal of access points: a fraction of
the currently visible (non-zero, real) pixels of a row is zeroed.
Gaussian input noise emulates short-term RSSI fluctuation.  Both act on
the first ``n_real`` entries of a row, the real APs, and never on the
padding.  Both are train-only; the inference path never touches them.
"""

from __future__ import annotations

import numpy as np


def draw_turnoff_fraction(p_upper: float, rng: np.random.Generator) -> float:
    """One uniform draw from [0, p_upper]."""
    return float(rng.uniform(0.0, p_upper))


def apply_ap_dropout(row: np.ndarray, n_real: int, p: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Copy of a pixel row with floor(p * v) of its v visible real-AP
    entries zeroed (seeded).  Padding and already-zero entries are never
    candidates."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("dropout fraction must lie in [0, 1]")
    out = np.array(row, dtype=np.float64, copy=True)
    visible = np.flatnonzero(out[:n_real] > 0.0)
    n_off = int(p * visible.size)
    if n_off > 0:
        out[rng.choice(visible, size=n_off, replace=False)] = 0.0
    return out


def noise_flat(flat: np.ndarray, n_real: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add N(0, sigma^2) to every real-AP entry, clamp to [0, 1].
    Works on one row or a batch (last axis = pixels); padding stays 0."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    out = np.array(flat, dtype=np.float64, copy=True)
    if sigma == 0.0:
        return out
    real = out[..., :n_real]
    real += rng.normal(0.0, sigma, size=real.shape)
    np.clip(real, 0.0, 1.0, out=real)
    return out
