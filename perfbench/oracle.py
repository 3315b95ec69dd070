"""Independent checker for the benchmark's predictions: an encoder forward
pass and a brute-force KNN, neither sharing code with driftloc.

The KNN follows the decision rule that ``tests/knn_oracle.py`` documents and
shares no code with ``driftloc.localizer``: neighbours are ordered by
(distance, rp_id, entry position); the majority RP wins; a tie goes to the
smallest mean neighbour distance, then to the lowest rp_id; the answer is
the coordinates of the winning RP's first neighbour.  Distances are plain
Euclidean, computed in float64 over small query blocks.

``embed`` is the encoder's inference pass written from its architecture
(normalise and zero-pad to a square image, two valid 2x2 convolutions with
ReLU, a dense layer with ReLU, a dense layer, L2 normalisation), in float64
with einsum and matmul, from the model's parameter arrays alone.
"""

from __future__ import annotations

import numpy as np

BLOCK = 64  # queries per distance or forward block; bounds the checker's memory
EMBED_TOL = 1e-9  # largest |difference| allowed between a float64 query embedding and embed()'s
INDEX_TOL = 1e-6  # the same for index rows, which driftloc stores as float32


def decide(dists: np.ndarray, rp_ids: list[int], xs: list[float], ys: list[float],
           k: int) -> tuple[int, float, float]:
    """Vote-rule decision for one query; returns (rp_id, x, y)."""
    kth = np.partition(dists, k - 1)[k - 1]
    cand = np.flatnonzero(dists <= kth).tolist()  # every entry that can rank in the top k
    cd = dists[cand].tolist()
    top = sorted(range(len(cand)), key=lambda j: (cd[j], rp_ids[cand[j]], cand[j]))[:k]
    nb = [(rp_ids[cand[j]], cd[j], cand[j]) for j in top]

    votes: dict[int, list[float]] = {}
    for rp, d, _ in nb:
        votes.setdefault(rp, []).append(d)
    best = max(len(v) for v in votes.values())
    tied = [rp for rp, v in votes.items() if len(v) == best]
    if len(tied) > 1:
        mean = {rp: sum(votes[rp]) / len(votes[rp]) for rp in tied}
        low = min(mean.values())
        tied = [rp for rp in tied if mean[rp] == low]
    winner = min(tied)
    first = next(pos for rp, _, pos in nb if rp == winner)
    return winner, xs[first], ys[first]


def knn(queries: np.ndarray, table: np.ndarray, rp_ids, xs, ys, k: int) -> np.ndarray:
    """Decide every query row against every table row; returns an (m, 3)
    array of (rp_id, x, y)."""
    table = np.asarray(table, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    rp_ids, xs, ys = (np.asarray(a).tolist() for a in (rp_ids, xs, ys))
    out = np.empty((len(queries), 3))
    for lo in range(0, len(queries), BLOCK):
        q = queries[lo:lo + BLOCK]
        d = np.sqrt(((q[:, None, :] - table[None, :, :]) ** 2).sum(axis=2))
        for j in range(len(q)):
            out[lo + j] = decide(d[j], rp_ids, xs, ys, k)
    return out


def normalized_rssi(rows: np.ndarray) -> np.ndarray:
    """dBm in [-100, 0] mapped linearly onto [0, 1]."""
    return np.clip((np.asarray(rows, dtype=np.float64) + 100.0) / 100.0, 0.0, 1.0)


def _conv_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid stride-1 convolution of (N, C, H, W) by (F, C, k, k), then ReLU."""
    k = w.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    out = np.einsum("nchwij,fcij->nfhw", win, w, optimize=True) + b[:, None, None]
    return np.maximum(out, 0.0)


def embed(params: dict, rssi_rows: np.ndarray, side: int) -> np.ndarray:
    """Unit-norm inference embeddings of dBm rows, one row per fingerprint."""
    x = normalized_rssi(rssi_rows)
    images = np.zeros((len(x), side * side))
    images[:, :x.shape[1]] = x
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    out = []
    for lo in range(0, len(x), BLOCK):
        h = images[lo:lo + BLOCK].reshape(-1, 1, side, side)
        h = _conv_relu(h, p["conv1_w"], p["conv1_b"])
        h = _conv_relu(h, p["conv2_w"], p["conv2_b"])
        h = np.maximum(h.reshape(len(h), -1) @ p["fc1_w"] + p["fc1_b"], 0.0)
        z = h @ p["fc2_w"] + p["fc2_b"]
        out.append(z / np.sqrt((z * z).sum(axis=1, keepdims=True)))
    return np.concatenate(out)


class Expect:
    """Answers to repeated operations on a fixed set of ``n`` keys.

    The first answer for each key is checked against the oracle at the end;
    every later answer is compared with the first as it arrives, and any
    that differs is kept and checked against the oracle on its own.
    """

    def __init__(self, n: int):
        self.first = np.full((n, 3), np.nan)
        self.repeats = np.zeros(n, dtype=np.int64)
        self.odd: list[tuple[int, np.ndarray]] = []

    def observe(self, keys, values) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64).reshape(len(keys), 3)
        for key, v in zip(keys.tolist(), values):
            if np.isnan(self.first[key, 0]):
                self.first[key] = v
            elif np.array_equal(self.first[key], v):
                self.repeats[key] += 1
            else:
                self.odd.append((key, v.copy()))

    def seen(self) -> np.ndarray:
        return np.flatnonzero(~np.isnan(self.first[:, 0]))

    def failures(self, truth: np.ndarray) -> int:
        """Answers that disagree with ``truth`` (an (n, 3) array)."""
        seen = ~np.isnan(self.first[:, 0])
        bad = seen & np.any(self.first != truth, axis=1)
        failed = int((1 + self.repeats[bad]).sum())
        return failed + sum(not np.array_equal(v, truth[key]) for key, v in self.odd)
