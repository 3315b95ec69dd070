"""Floorplan-aware triplet selection on pixel-row arrays.

Hard negatives come from reference points that are physically close to the
anchor: the probability of picking RP_i as the negative for anchor RP_a is
proportional to a bivariate Gaussian kernel exp(-||pos_i - pos_a||^2 /
(2 sigma_sel^2)), with the anchor's own probability forced to zero and the
rest renormalized.  Positives are drawn uniformly from the anchor's RP;
with a single fingerprint at that RP the anchor is reused (augmentation
still differentiates the pair).

The training set enters as three arrays built once: the (n, s*s) pixel
rows, one index array of rows per RP, and the (n_rp, n_rp) pmf matrix,
all in floorplan RP order.  A triplet is three row indices; a batch is a
(3, b, s*s) array of anchor, positive and negative rows.
"""

from __future__ import annotations

import numpy as np

from .augment import apply_ap_dropout, draw_turnoff_fraction
from .data import FingerprintDataset, FloorPlan


def default_sigma_sel(fp: FloorPlan) -> float:
    """Selection bandwidth scaled to the floorplan: 0.1 x the bounding-box
    diagonal of the RP coordinates."""
    diag = fp.bounding_box_diagonal()
    if diag <= 0.0:
        raise ValueError("floorplan RPs are co-located; sigma_sel has no scale")
    return 0.1 * diag


def build_pmf_table(fp: FloorPlan, sigma_sel: float | None = None) -> np.ndarray:
    """Read-only (n_rp, n_rp) matrix, floorplan order on both axes: row a
    is the distribution of the negative RP for anchor RP a, the Gaussian
    kernel of each RP's distance from a, with a's own entry 0."""
    if sigma_sel is None:
        sigma_sel = default_sigma_sel(fp)
    if not sigma_sel > 0.0:
        raise ValueError("sigma_sel must be > 0")
    pos = fp.positions()
    sq = ((pos[None, :, :] - pos[:, None, :]) ** 2).sum(axis=2)
    w = np.exp(-sq / (2.0 * sigma_sel * sigma_sel))
    np.fill_diagonal(w, 0.0)
    total = w.sum(axis=1, keepdims=True)
    if not np.all(total > 0.0):
        raise ValueError("negative kernel underflowed to zero; increase sigma_sel")
    table = w / total
    table.setflags(write=False)
    return table


def rp_members(train: FingerprintDataset) -> list[np.ndarray]:
    """Row indices of the training fingerprints at each RP, in floorplan
    order.  Every RP must have at least one."""
    if len(train) == 0:
        raise ValueError("empty training set")
    per_rp = train.by_rp()
    empty = sorted(rp for rp, idxs in per_rp.items() if not idxs)
    if empty:
        raise ValueError(f"RPs {empty} have no training fingerprints")
    return [np.array(idxs) for idxs in per_rp.values()]


def sample_triplet(members: list[np.ndarray], pmf: np.ndarray,
                   rng: np.random.Generator) -> tuple[int, int, int]:
    """Draw one (anchor, positive, negative) triplet of row indices.

    Anchor RP uniform over RPs; fingerprints uniform within their RP; the
    negative RP follows the anchor RP's row of ``pmf``.  The positive is
    distinct from the anchor fingerprint whenever the RP has more than one.
    Draws come in the order anchor RP, anchor, positive, negative RP,
    negative.
    """
    a_rp = rng.integers(len(members))
    own = members[a_rp]
    a = rng.integers(len(own))
    if len(own) >= 2:
        p = rng.integers(len(own) - 1)
        p += p >= a  # skip the anchor itself
    else:
        p = a  # single-fingerprint RP: reuse the anchor
    neg = members[rng.choice(len(pmf), p=pmf[a_rp])]
    return int(own[a]), int(own[p]), int(neg[rng.integers(len(neg))])


def make_batch(pixels: np.ndarray, members: list[np.ndarray], pmf: np.ndarray,
               n_real: int, batch_size: int, p_upper: float,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample a batch of triplets and apply AP dropout to each row.

    Returns the (batch_size, 3) row indices and the (3, batch_size, s*s)
    anchor, positive and negative rows.  Each of a triplet's three rows
    draws its own turn-off fraction from [0, p_upper] right after the
    triplet is drawn; p_upper 0 draws none.  Gaussian input noise is not
    applied here; :func:`~driftloc.encoder.train_step` adds it.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = np.empty((batch_size, 3), dtype=np.intp)
    rows = np.empty((3, batch_size, pixels.shape[1]))
    for i in range(batch_size):
        idx[i] = sample_triplet(members, pmf, rng)
        for j, r in enumerate(idx[i]):
            row = pixels[r]
            if p_upper > 0.0:
                row = apply_ap_dropout(row, n_real, draw_turnoff_fraction(p_upper, rng), rng)
            rows[j, i] = row
    return idx, rows
