"""End-to-end pipeline: train the encoder, build the embedding index,
and answer online queries.

The index is a flat exhaustive-scan table; KNN is exact.  Neighbor order
is total: ascending distance, then ascending rp_id, then ascending entry
position.  A KNN table is stored once in that tie order, column-major:
a (d, n) float64 array whose row j holds every entry's j-th value.  A
block of queries gets its (rows, n) distances from ops over whole
(rows, n) tables, up to 8 vector components at a time, summed in numpy's
pairwise order, so each distance has the bits of numpy's row sum.  Blocks
are sized by the kernel's scratch bytes, and each block's top k comes
from one partition and a stable sort of the entries at or below each
row's k-th distance, so the order never depends on the block size.  The
blocks' distances and top k run on nn.map_blocks' worker threads; the
decisions then run on the calling thread, in query order.

The default decision rule is majority RP vote with ties broken by
smallest mean neighbor distance and finally lowest rp_id; the
alternative rule interpolates an inverse-distance-weighted centroid of
the neighbor coordinates (the reported rp_id still follows the vote).

Models are finalized at float32 parameter precision when training ends,
so persisting and reloading a model reproduces its predictions exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Fingerprint, FingerprintDataset
from .encoder import EncoderConfig, EncoderModel, encode_batch, init_model, train_step
from . import nn
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
    learning_rate: float = nn.AdamState.lr

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.p_upper <= 1.0:
            raise ValueError("p_upper must lie in [0, 1]")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.sigma_sel is not None and not 0.0 < self.sigma_sel < math.inf:
            raise ValueError("sigma_sel must be finite and > 0")


class _TieTable(NamedTuple):
    """A KNN table with its entries in tie order, (rp_id, position)."""

    columns: np.ndarray  # (d, n) float64: row j holds every entry's j-th value
    rp_ids: np.ndarray   # (n,) each entry's rp_id and coordinates, same order
    xs: np.ndarray
    ys: np.ndarray


def _tie_table(vectors: np.ndarray, rp_ids: np.ndarray, xs: np.ndarray,
               ys: np.ndarray) -> _TieTable:
    """The (n, d) ``vectors`` and their columns as a read-only _TieTable."""
    order = np.argsort(rp_ids, kind="stable")
    table = _TieTable(np.asarray(vectors.T.take(order, axis=1), dtype=np.float64),
                      rp_ids[order], xs[order], ys[order])
    for arr in table:
        arr.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class EmbeddingIndex:
    """(embedding, rp_id, x, y) rows queried by exhaustive KNN.

    Stored at float32 precision so that serialization is lossless.  The
    query side, built once, is ``knn``: the embeddings as a float64 (d, n)
    column table, and the rp_ids and coordinates, all in tie order.
    """

    embeddings: np.ndarray  # (n, d) float32, unit rows
    rp_ids: np.ndarray      # (n,) int32
    xs: np.ndarray          # (n,) float32
    ys: np.ndarray          # (n,) float32
    knn: _TieTable = field(init=False, repr=False)

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
        for arr, name in ((emb, "embeddings"), (rp, "rp_ids"), (xs, "xs"), (ys, "ys")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "knn", _tie_table(emb, rp, xs, ys))

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


def train(train_set: FingerprintDataset, cfg: TrainConfig,
          seed: int) -> tuple[EncoderModel, EmbeddingIndex]:
    """Offline phase: preprocess, sample triplets, train the encoder, then
    embed every training fingerprint (inference mode, no augmentation)
    into the index.  Deterministic per seed."""
    rows = normalize_rows(train_set.rssi)

    ss = np.random.SeedSequence(seed)
    init_seed, sampler_seed, step_seed = (int(s) for s in ss.generate_state(3))
    model = init_model(cfg.encoder, image_side(rows.shape[1]), init_seed)
    sampler_rng = np.random.default_rng(sampler_seed)
    step_rng = np.random.default_rng(step_seed)

    members = rp_members(train_set)
    pmf = build_pmf_table(train_set.floorplan, cfg.sigma_sel)
    opt = nn.AdamState(lr=cfg.learning_rate)

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

    # Finalize as load_model_full does, from read-only float32 parameters: a
    # save/load round trip changes no bit, and the index embeds this model.
    params = {name: p.astype(np.float32) for name, p in model.params.items()}
    for p in params.values():
        p.setflags(write=False)
    model = EncoderModel(config=model.config, input_side=model.input_side, params=params)

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


def _top_k(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of each row's k smallest entries of an (m, n)
    table, in (value, column) order: the first k of each row's stable sort.

    One partition finds each row's k-th value.  The entries not above it,
    NaN or not, number at least k in every row and include that first k,
    so each row's first k of them, stable-sorted by value, are it."""
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
    keep = ~(dists > kth)
    r, c = np.nonzero(keep)  # in row order
    vals = dists[keep]
    order = np.lexsort((vals, r))  # stable: rows stay grouped, ties in column order
    first = order[np.searchsorted(r, np.arange(len(dists)))[:, None] + np.arange(k)]
    return c[first], vals[first]


def _decide_rows(nb: np.ndarray, nb_dist: np.ndarray, rp_ids: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray, rule: str) -> list[Prediction]:
    """Decision for each row of (m, k) neighbour columns ``nb`` of a table
    in tie order, and their distances, in query order."""
    return [_decide(*cols, rule) for cols in zip(
        rp_ids[nb].tolist(), nb_dist.tolist(), xs[nb].tolist(), ys[nb].tolist())]


def _knn_decide(dists: np.ndarray, rp_ids: np.ndarray, xs: np.ndarray,
                ys: np.ndarray, k: int, rule: str) -> Prediction:
    """Decision for one query from its distances to every table row."""
    _check_query(dists.shape[0], k, rule)
    table = _tie_table(dists[:, None], rp_ids, xs, ys)
    nb, nb_dist = _top_k(table.columns, k)
    return _decide_rows(nb, nb_dist, table.rp_ids, table.xs, table.ys, rule)[0]


_PAIRWISE_BLOCK = 128  # numpy's pairwise sum splits longer rows in two


def _slots(d: int) -> int:
    """(rows, n) buffers that _square_sums holds for a sum of d terms."""
    if d > _PAIRWISE_BLOCK:
        half = d // 2 - d // 2 % 8
        return max(_slots(half), 1 + _slots(d - half))
    return d + 1 if d < 8 else min(d, 16)  # below 8: the d squares and their sum


def _square_sums(columns: np.ndarray, q: np.ndarray, lo: int, hi: int,
                 bufs: np.ndarray) -> np.ndarray:
    """Sum over j in [lo, hi) of (columns[j] - q[:, j])**2, an (m, n)
    table, into ``bufs[0]``, with ``bufs``, _slots(hi - lo) (m, n) buffers,
    as scratch.  The terms are added in the order of numpy's pairwise sum
    of a contiguous row: fewer than 8 in order, as one reduce over the
    outer axis of their squares in ``bufs[1:]``; up to 128 as 8 running
    sums over strides of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the leftover terms in order; more as two halves, the first a
    multiple of 8, added.  Each op covers up to 8 whole (m, n) tables."""
    n, out = hi - lo, bufs[0]
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        _square_sums(columns, q, lo, lo + half, bufs)
        return np.add(out, _square_sums(columns, q, lo + half, hi, bufs[1:]), out=out)

    def squares(a: int, b: int, buf: np.ndarray) -> np.ndarray:
        buf = buf[:b - a]
        np.subtract(columns[a:b, None, :], q.T[a:b, :, None], out=buf)
        return np.square(buf, out=buf)

    if n < 8:
        return np.add.reduce(squares(lo, hi, bufs[1:]), axis=0, out=out)
    lanes, tmp = squares(lo, lo + 8, bufs), bufs[8:]
    hi8 = hi - n % 8
    for j in range(lo + 8, hi8, 8):
        lanes += squares(j, j + 8, tmp)
    lanes[0::2] += lanes[1::2]
    lanes[0::4] += lanes[2::4]
    out += lanes[4]
    for t in squares(hi8, hi, tmp):
        out += t
    return out


def _distances(q: np.ndarray, columns: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Euclidean distances of the (rows, d) queries ``q`` to the entries
    of the (d, n) ``columns``, a (rows, n) view of ``scratch``, the
    kernel's (_slots(d), rows or more, n) buffers.

    Each op runs long loops over whole (rows, n) tables, not one d-long
    loop per (query, entry) pair, and _square_sums adds the d squared
    differences in numpy's pairwise order, so every distance equals
    ``np.sqrt(np.square(table - q).sum(-1))`` bit for bit.  That depends
    on numpy's reduction order, which the tests pin."""
    bufs = scratch[:, :len(q)]
    return np.sqrt(_square_sums(columns, q, 0, len(columns), bufs), out=bufs[0])


def _knn_blocks(queries: np.ndarray, table: _TieTable, k: int,
                rule: str) -> list[Prediction]:
    """Exact KNN of every (m, d) query vector against a tie-ordered table.
    The queries go in blocks of nn.per_block queries, each with _slots(d)
    (n,) scratch rows, on nn.map_blocks' threads, each thread's blocks
    through one scratch; a block's distances and top k do not depend on
    its thread or size.  Distances are
    elementwise, so identical entries get identical distances.  The
    decisions follow in query order.  The caller checks k and rule with
    _check_query."""
    (d, n), m = table.columns.shape, len(queries)
    step = nn.per_block(8 * n * _slots(d))
    blocks = range(0, m, step)
    found = [None] * len(blocks)  # each block's neighbour columns and distances

    def run(starts, scratch):
        for lo in starts:
            dists = _distances(queries[lo:lo + step], table.columns, scratch)
            found[lo // step] = _top_k(dists, k)

    nn.map_blocks(run, blocks, lambda: np.empty((_slots(d), min(m, step), n)))
    return [pred for nb, nb_dist in found
            for pred in _decide_rows(nb, nb_dist, table.rp_ids, table.xs, table.ys, rule)]


def predict_batch(model: EncoderModel, index: EmbeddingIndex, rssi_rows: np.ndarray,
                  k: int = DEFAULT_K, rule: str = DEFAULT_RULE) -> list[Prediction]:
    """Locate every row of an (m, n_aps) dBm array: embed the scans (no
    noise, no dropout) and run exact KNN over the index."""
    _check_query(len(index), k, rule)
    if model.config.embed_dim != index.embed_dim:
        raise ValueError("model and index disagree on embedding length")
    queries = encode_batch(model, normalize_rows(rssi_rows))
    return _knn_blocks(queries, index.knn, k, rule)


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
    _check_query(len(train_set), k, rule)
    rows = normalize_rows(rssi_rows)
    if rows.shape[1] != train_set.floorplan.n_aps:
        raise ValueError("scan is not aligned to the training registry")
    table = _tie_table(normalize_rows(train_set.rssi), train_set.rp_ids,
                       train_set.xy[:, 0], train_set.xy[:, 1])
    return _knn_blocks(rows, table, k, rule)

