"""Training-time robustness transforms on normalized rows.

AP dropout emulates the future removal of access points: a fraction of
the currently visible (non-zero) APs of a row is zeroed.  Gaussian input
noise emulates short-term RSSI fluctuation.  Both act on every entry of
the (..., n_aps) rows they are given.  Both are train-only; the inference
path never touches them.
"""

from __future__ import annotations

import numpy as np


def draw_turnoff_fraction(p_upper: float, rng: np.random.Generator) -> float:
    """One uniform draw from [0, p_upper]."""
    return float(rng.uniform(0.0, p_upper))


def apply_ap_dropout(row: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Copy of a row with floor(p * v) of its v visible entries zeroed
    (seeded).  Already-zero entries are never candidates."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("dropout fraction must lie in [0, 1]")
    out = np.array(row, dtype=np.float64, copy=True)
    visible = np.flatnonzero(out > 0.0)
    n_off = int(p * visible.size)
    if n_off > 0:
        out[rng.choice(visible, size=n_off, replace=False)] = 0.0
    return out


def noise_flat(rows: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """New array: N(0, sigma^2) added to every entry, clamped to [0, 1].
    Works on one row or a batch."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    rows = np.asarray(rows, dtype=np.float64)
    if sigma == 0.0:
        return rows.copy()
    return np.clip(rows + rng.normal(0.0, sigma, size=rows.shape), 0.0, 1.0)
