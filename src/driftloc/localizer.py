"""End-to-end pipeline: train the encoder, build the embedding index,
and answer online queries.

The index is a flat exhaustive-scan table; KNN is exact.  Neighbor order
is total: ascending distance, then ascending rp_id, then ascending entry
position.  The default decision rule is majority RP vote with ties broken
by smallest mean neighbor distance and finally lowest rp_id; the
alternative rule interpolates an inverse-distance-weighted centroid of
the neighbor coordinates (the reported rp_id still follows the vote).

Models are finalized at float32 parameter precision when training ends,
so persisting and reloading a model reproduces its predictions exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Fingerprint, FingerprintDataset
from .encoder import (BLOCK_ROWS, EncoderConfig, EncoderModel, encode_batch, init_model,
                      train_step)
from .nn import AdamState
from .preprocess import image_side, normalize_rows
from .sampler import build_pmf_table, make_batch, rp_members

logger = logging.getLogger(__name__)

DEFAULT_K = 3  # neighbours per query, for the library and the command-line flags
RULES = ("vote", "centroid")  # the decision rules _decide implements
DEFAULT_RULE = RULES[0]


@dataclass(frozen=True)
class TrainConfig:
    """Everything the offline phase needs besides the data and the seed."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    p_upper: float = 0.90  # AP-dropout turn-off fraction drawn from [0, p_upper]
    sigma_sel: float | None = None  # None -> 0.1 x floorplan bbox diagonal
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.p_upper <= 1.0:
            raise ValueError("p_upper must lie in [0, 1]")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.sigma_sel is not None and not 0.0 < self.sigma_sel < math.inf:
            raise ValueError("sigma_sel must be finite and > 0")


@dataclass(frozen=True, eq=False)
class EmbeddingIndex:
    """(embedding, rp_id, x, y) rows queried by exhaustive KNN.

    Stored at float32 precision so that serialization is lossless.  The
    query side, built once: ``table``, the embeddings as float64, and
    ``tie_order``, the entry positions in (rp_id, position) order.
    """

    embeddings: np.ndarray  # (n, d) float32, unit rows
    rp_ids: np.ndarray      # (n,) int32
    xs: np.ndarray          # (n,) float32
    ys: np.ndarray          # (n,) float32
    table: np.ndarray = field(init=False, repr=False)       # (n, d) float64
    tie_order: np.ndarray = field(init=False, repr=False)   # (n,) int64

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float32)
        rp = np.asarray(self.rp_ids, dtype=np.int32)
        xs = np.asarray(self.xs, dtype=np.float32)
        ys = np.asarray(self.ys, dtype=np.float32)
        if emb.ndim != 2 or emb.shape[0] == 0:
            raise ValueError("index must be a non-empty (n, d) table")
        n = emb.shape[0]
        if rp.shape != (n,) or xs.shape != (n,) or ys.shape != (n,):
            raise ValueError("index column lengths disagree")
        if not np.array_equal(rp, self.rp_ids):
            raise ValueError("index rp_ids must be integers that fit in int32")
        if not (np.all(np.isfinite(emb)) and np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("index contains non-finite values")
        norms = np.linalg.norm(emb.astype(np.float64), axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-5):
            raise ValueError("index embeddings must be unit-norm")
        for arr, name in ((emb, "embeddings"), (rp, "rp_ids"), (xs, "xs"), (ys, "ys"),
                          (emb.astype(np.float64), "table"),
                          (np.argsort(rp, kind="stable"), "tie_order")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class Prediction:
    x: float
    y: float
    rp_id: int
    neighbor_rps: tuple[tuple[int, float], ...]  # (rp_id, distance), consultation order


def train(train_set: FingerprintDataset, cfg: TrainConfig, seed: int,
          progress: Callable[[int, float], None] | None = None
          ) -> tuple[EncoderModel, EmbeddingIndex]:
    """Offline phase: preprocess, sample triplets, train the encoder, then
    embed every training fingerprint (inference mode, no augmentation)
    into the index.  Deterministic per seed."""
    if len(train_set) == 0:
        raise ValueError("empty training set")
    rows = normalize_rows(train_set.rssi)

    ss = np.random.SeedSequence(seed)
    init_seed, sampler_seed, step_seed = (int(s) for s in ss.generate_state(3))
    model = init_model(cfg.encoder, image_side(rows.shape[1]), init_seed)
    sampler_rng = np.random.default_rng(sampler_seed)
    step_rng = np.random.default_rng(step_seed)

    members = rp_members(train_set)
    pmf = build_pmf_table(train_set.floorplan, cfg.sigma_sel)
    opt = AdamState(lr=cfg.learning_rate)

    batches_per_epoch = max(1, math.ceil(len(train_set) / cfg.batch_size))
    for epoch in range(cfg.epochs):
        total = 0.0
        for _ in range(batches_per_epoch):
            _, batch = make_batch(rows, members, pmf, cfg.batch_size, cfg.p_upper,
                                  sampler_rng)
            model, opt, loss = train_step(model, batch, opt, step_rng)
            total += loss
        mean = total / batches_per_epoch
        logger.debug("epoch %d/%d mean triplet loss %.5f", epoch + 1, cfg.epochs, mean)
        if progress is not None:
            progress(epoch, mean)

    # Finalize at serialized precision so save/load cannot change
    # predictions, read-only so the model stays the one its index embeds.
    for name in model.params:
        p = model.params[name].astype(np.float32).astype(np.float64)
        p.setflags(write=False)
        model.params[name] = p

    emb = encode_batch(model, rows).astype(np.float32)
    index = EmbeddingIndex(embeddings=emb, rp_ids=train_set.rp_ids,
                           xs=train_set.xy[:, 0], ys=train_set.xy[:, 1])
    return model, index


def _check_query(n: int, k: int, rule: str) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds index size {n}")
    if rule not in RULES:
        raise ValueError(f"unknown decision rule {rule!r}")


def _decide(nb_rp: list[int], nb_dist: list[float], nb_x: list[float],
            nb_y: list[float], rule: str) -> Prediction:
    """Decision rule over one query's k neighbours, in consultation order."""
    votes: dict[int, int] = {}
    for rp in nb_rp:
        votes[rp] = votes.get(rp, 0) + 1
    best = max(votes.values())
    tied = [rp for rp, c in votes.items() if c == best]
    if len(tied) > 1:
        mean_d = {rp: sum(d for r, d in zip(nb_rp, nb_dist) if r == rp) / votes[rp]
                  for rp in tied}
        low = min(mean_d.values())
        tied = [rp for rp in tied if mean_d[rp] == low]
    winner = min(tied)

    if rule == "vote":
        i = nb_rp.index(winner)
        x, y = nb_x[i], nb_y[i]
    else:
        w = [1.0 / (d + 1e-9) for d in nb_dist]
        tot = sum(w)
        x = sum(wi * xi for wi, xi in zip(w, nb_x)) / tot
        y = sum(wi * yi for wi, yi in zip(w, nb_y)) / tot
    return Prediction(x=x, y=y, rp_id=winner,
                      neighbor_rps=tuple(zip(nb_rp, nb_dist)))


def _knn_rows(dists: np.ndarray, by_rp: np.ndarray, rp_ids: np.ndarray,
              xs: np.ndarray, ys: np.ndarray, k: int, rule: str) -> list[Prediction]:
    """Exact top-k and decision for each row of an (m, n) distance table.

    ``by_rp`` is the tie order, the table positions in (rp_id, position)
    order; a stable sort of each row's distances in that order yields
    neighbours in (distance, rp_id, position) order.
    """
    nb = by_rp[np.argsort(dists[:, by_rp], axis=1, kind="stable")[:, :k]]
    return [_decide(*cols, rule) for cols in zip(
        rp_ids[nb].tolist(), np.take_along_axis(dists, nb, axis=1).tolist(),
        xs[nb].tolist(), ys[nb].tolist())]


def _knn_decide(dists: np.ndarray, rp_ids: np.ndarray, xs: np.ndarray,
                ys: np.ndarray, k: int, rule: str) -> Prediction:
    """Decision for one query from its distances to every table row."""
    _check_query(dists.shape[0], k, rule)
    return _knn_rows(dists[None, :], np.argsort(rp_ids, kind="stable"),
                     rp_ids, xs, ys, k, rule)[0]


def _knn_blocks(queries: np.ndarray, table: np.ndarray, by_rp: np.ndarray,
                rp_ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, k: int,
                rule: str) -> list[Prediction]:
    """Exact KNN of every (m, d) query vector against the (n, d) ``table``,
    BLOCK_ROWS queries at a time through one difference and one distance
    buffer.  Distances are elementwise differences, so identical table
    rows get identical distances."""
    _check_query(len(table), k, rule)
    b = min(len(queries), BLOCK_ROWS)
    diff = np.empty((b,) + table.shape)
    dists = np.empty((b, len(table)))
    out: list[Prediction] = []
    for lo in range(0, len(queries), BLOCK_ROWS):
        q = queries[lo:lo + BLOCK_ROWS]
        d, dd = diff[:len(q)], dists[:len(q)]
        np.subtract(table[None, :, :], q[:, None, :], out=d)
        np.sqrt(np.square(d, out=d).sum(axis=-1, out=dd), out=dd)
        out += _knn_rows(dd, by_rp, rp_ids, xs, ys, k, rule)
    return out


def predict_batch(model: EncoderModel, index: EmbeddingIndex, rssi_rows: np.ndarray,
                  k: int = DEFAULT_K, rule: str = DEFAULT_RULE) -> list[Prediction]:
    """Locate every row of an (m, n_aps) dBm array: embed the scans (no
    noise, no dropout) and run exact KNN over the index."""
    if model.config.embed_dim != index.embed_dim:
        raise ValueError("model and index disagree on embedding length")
    rows = normalize_rows(rssi_rows)
    queries = encode_batch(model, rows) if len(rows) else np.empty((0, index.embed_dim))
    return _knn_blocks(queries, index.table, index.tie_order, index.rp_ids,
                       index.xs, index.ys, k, rule)


def predict(model: EncoderModel, index: EmbeddingIndex, scan: Fingerprint,
            k: int = DEFAULT_K, rule: str = DEFAULT_RULE) -> Prediction:
    """Locate one scan: a one-row :func:`predict_batch`."""
    return predict_batch(model, index, scan.rssi[None, :], k, rule)[0]


def baseline_predict_batch(train_set: FingerprintDataset, rssi_rows: np.ndarray,
                           k: int = DEFAULT_K, rule: str = DEFAULT_RULE) -> list[Prediction]:
    """Encoder-free KNN of every row of an (m, n_aps) dBm array against the
    training set's normalized RSSI rows, same decision rule as
    :func:`predict_batch`."""
    if len(train_set) == 0:
        raise ValueError("empty training set")
    rows = normalize_rows(rssi_rows)
    if rows.shape[1] != train_set.floorplan.n_aps:
        raise ValueError("scan is not aligned to the training registry")
    return _knn_blocks(rows, normalize_rows(train_set.rssi),
                       np.argsort(train_set.rp_ids, kind="stable"), train_set.rp_ids,
                       train_set.xy[:, 0], train_set.xy[:, 1], k, rule)

