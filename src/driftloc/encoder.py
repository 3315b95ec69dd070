"""Convolutional Siamese encoder with triplet loss.

A single parameter set embeds rows onto the d-dimensional unit sphere:
noise (train only) -> zero-padding to s*s -> conv 2x2 -> ReLU -> dropout
-> conv 2x2 -> ReLU -> dropout -> flatten -> FC -> ReLU -> FC(d) -> L2
normalization.  Inputs are (m, w) arrays of values in [0, 1] whose width
pads to the model's s x s image (see :func:`_input`); a triplet is a
(3, w) array and a training batch a (3, b, w) array of anchor, positive
and negative rows.  The three triplet branches are forwards through the
same weights, so weight sharing holds by construction.

Training math is float64; gradients are verifiable against central
finite differences via :func:`gradient_check`.  Inference runs a separate
cache-free forward (:func:`_infer`) that keeps no backward state and
gives the same bits as the training forward without noise and dropout.
:func:`encode_batch` runs it on BLOCK_ROWS-row blocks, spread over
nn.map_blocks' worker threads, each in layer buffers that the calling
thread made; the bits do not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .augment import noise_flat
from .errors import HingeInactiveError, NonFiniteLossError, StochasticModelError
from .preprocess import image_side, pad_square

# Inference runs the network on at most this many rows at a time: the rows
# of one default training forward (3 x 32), so embedding a large set never
# holds more activations than a training step does.
BLOCK_ROWS = 96

# gradient_check moves each parameter entry this far either way.
FD_STEP = 1e-5

PARAM_ORDER = ("conv1_w", "conv1_b", "conv2_w", "conv2_b",
               "fc1_w", "fc1_b", "fc2_w", "fc2_b")


@dataclass(frozen=True)
class EncoderConfig:
    conv1_filters: int = 64
    conv2_filters: int = 128
    filter_size: int = 2
    fc_units: int = 100
    embed_dim: int = 5
    dropout_rate: float = 0.25
    margin_alpha: float = 0.2
    noise_sigma: float = 0.10

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not 0.0 <= self.margin_alpha < math.inf:
            raise ValueError("margin_alpha must be finite and >= 0")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.filter_size < 1 or self.conv1_filters < 1 or self.conv2_filters < 1:
            raise ValueError("filter counts and filter_size must be >= 1")
        if self.fc_units < 1:
            raise ValueError("fc_units must be >= 1")


def _param_shapes(cfg: EncoderConfig, input_side: int) -> dict[str, tuple[int, ...]]:
    k = cfg.filter_size
    side2 = input_side - 2 * (k - 1)  # the side two valid convolutions leave
    if side2 < 1:
        raise ValueError(
            f"input side {input_side} too small: two {k}x{k} "
            f"valid convolutions need side >= {2 * (k - 1) + 1}"
        )
    flat = cfg.conv2_filters * side2 * side2
    return {
        "conv1_w": (cfg.conv1_filters, 1, k, k),
        "conv1_b": (cfg.conv1_filters,),
        "conv2_w": (cfg.conv2_filters, cfg.conv1_filters, k, k),
        "conv2_b": (cfg.conv2_filters,),
        "fc1_w": (flat, cfg.fc_units),
        "fc1_b": (cfg.fc_units,),
        "fc2_w": (cfg.fc_units, cfg.embed_dim),
        "fc2_b": (cfg.embed_dim,),
    }


@dataclass(eq=False)
class EncoderModel:
    """Configuration plus the parameter tensors of a trained or fresh
    encoder.  ``params`` is the model's own dict of float64 arrays, with
    the conv weights in :func:`nn.gemm_layout`; a float32 parameter, such
    as a loaded one, is cast in that same one copy.  Each keeps the write
    flag of the array it is built from: training steps update it in place;
    ``train()`` and ``load_model_full`` build it from read-only float32
    parameters."""

    config: EncoderConfig
    input_side: int
    params: dict[str, np.ndarray]

    def __post_init__(self):
        shapes = _param_shapes(self.config, self.input_side)
        names, want = set(self.params), set(PARAM_ORDER)
        if names != want:
            raise ValueError(f"missing parameters {sorted(want - names)}, "
                             f"unknown parameters {sorted(names - want)}")
        params = {}
        for name in PARAM_ORDER:
            p = self.params[name]
            if p.shape != shapes[name]:
                raise ValueError(f"parameter {name}: shape {p.shape} != expected {shapes[name]}")
            if not np.all(np.isfinite(p)):
                raise ValueError(f"parameter {name} contains non-finite values")
            params[name] = nn.gemm_layout(p) if p.ndim == 4 else np.asarray(p, dtype=np.float64)
            params[name].setflags(write=p.flags.writeable)
        self.params = params


def init_model(cfg: EncoderConfig, input_side: int, seed: int) -> EncoderModel:
    """Fresh parameters: He-style fan-in-scaled uniform weights, zero
    biases; deterministic per seed.  A conv weight (out, in, k, k) has
    fan-in in*k*k, a dense weight (in, out) fan-in in."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg, input_side).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            fan_in = math.prod(shape[1:]) if len(shape) == 4 else shape[0]
            limit = np.sqrt(6.0 / fan_in)
            params[name] = rng.uniform(-limit, limit, size=shape)
    return EncoderModel(config=cfg, input_side=input_side, params=params)


def _forward(model: EncoderModel, rows: np.ndarray, rng: np.random.Generator | None):
    """The training forward: (N, w) rows -> unit embeddings (N, d) plus
    backward caches.  The config's input noise on every entry, then its
    dropout after each conv, are drawn from ``rng`` in that order; ``rng``
    may be None only when both are off.  Each conv output is copied to
    NCHW memory: dropout draws its mask in logical order whatever the
    layout, so the copies keep every bit, and a step runs faster with
    them."""
    cfg = model.config
    if cfg.noise_sigma > 0.0:
        rows = noise_flat(rows, cfg.noise_sigma, rng)
    s = model.input_side
    x = pad_square(rows).reshape(len(rows), 1, s, s)
    p = model.params
    h1, c_conv1 = nn.conv2d_forward(x, p["conv1_w"], p["conv1_b"])
    h1 = np.ascontiguousarray(h1)
    a1, c_act1 = nn.relu_dropout_forward(h1, cfg.dropout_rate, rng)
    h2, c_conv2 = nn.conv2d_forward(a1, p["conv2_w"], p["conv2_b"])
    h2 = np.ascontiguousarray(h2)
    a2, c_act2 = nn.relu_dropout_forward(h2, cfg.dropout_rate, rng)
    flat = a2.reshape(a2.shape[0], -1)
    h3, c_fc1 = nn.dense_forward(flat, p["fc1_w"], p["fc1_b"])
    a3, c_act3 = nn.relu_dropout_forward(h3, 0.0, None)
    z, c_fc2 = nn.dense_forward(a3, p["fc2_w"], p["fc2_b"])
    e, c_norm = nn.l2norm_forward(z)
    caches = (c_conv1, c_act1, c_conv2, c_act2, a2.shape,
              c_fc1, c_act3, c_fc2, c_norm)
    return e, caches


def _workspace(model: EncoderModel, m: int) -> tuple[np.ndarray, ...]:
    """Flat float64 buffers for _infer over up to m rows: conv2's output,
    conv1's output, the patch blocks of both convs, and the flat fc1
    input.  The last three are views of one array: conv1's output and the
    patch blocks side by side, the fc1 input over both once they are
    dead."""
    cfg, s, p = model.config, model.input_side, model.params
    side1 = s - cfg.filter_size + 1
    out1, patches1 = nn.conv2d_sizes((m, 1, s, s), p["conv1_w"].shape)
    out2, patches2 = nn.conv2d_sizes((m, cfg.conv1_filters, side1, side1), p["conv2_w"].shape)
    patches = max(patches1, patches2)
    shared = np.empty(max(out1 + patches, out2))
    return np.empty(out2), shared[:out1], shared[out1:out1 + patches], shared[:out2]


def _infer(model: EncoderModel, rows: np.ndarray, work: tuple[np.ndarray, ...]) -> np.ndarray:
    """(N, w) rows -> unit embeddings (N, d), the inference forward: no
    dropout, and each layer's cache and input dropped as soon as the layer
    returns.  ReLU runs in place on each layer's output but conv2's, which
    it writes straight into the C-contiguous NCHW fc1 input: the flatten
    of conv2's channels-last output takes no second pass.  The conv
    outputs, their patch blocks and the fc1 input live in ``work``, a
    _workspace for N rows or more.  Bit-equal to ``_forward(model, rows,
    None)[0]`` with noise and dropout off."""
    s, p, m = model.input_side, model.params, len(rows)
    out2, out1, patches, flat = work
    h = pad_square(rows).reshape(m, 1, s, s)
    h = nn.conv2d_into(h, p["conv1_w"], p["conv1_b"], out1, patches)[0]
    np.maximum(h, 0.0, out=h)
    h = nn.conv2d_into(h, p["conv2_w"], p["conv2_b"], out2, patches)[0]
    h = np.maximum(h, 0.0, out=flat[:h.size].reshape(h.shape))
    h = nn.dense_forward(h.reshape(m, -1), p["fc1_w"], p["fc1_b"])[0]
    np.maximum(h, 0.0, out=h)
    h = nn.dense_forward(h, p["fc2_w"], p["fc2_b"])[0]
    return nn.l2norm_forward(h)[0]


def _backward(caches, ge: np.ndarray) -> dict[str, np.ndarray]:
    """The gradient of every parameter.  The calling thread runs the input
    gradients down to conv2's, and each layer queues its weight gradient
    to the pool as soon as its upstream gradient is ready; conv1's input
    gradient is never formed.  Every gradient is whole once the tasks'
    block has exited."""
    (c_conv1, c_act1, c_conv2, c_act2, conv2_out_shape,
     c_fc1, c_act3, c_fc2, c_norm) = caches
    with nn.Tasks() as tasks:
        gz = nn.l2norm_backward(c_norm, ge)
        ga3, g_fc2_w, g_fc2_b = nn.dense_backward(c_fc2, gz, tasks)
        gh3 = nn.relu_dropout_backward(c_act3, ga3)
        gflat, g_fc1_w, g_fc1_b = nn.dense_backward(c_fc1, gh3, tasks)
        gh2 = nn.relu_dropout_backward(c_act2, gflat.reshape(conv2_out_shape))
        ga1, g_conv2_w, g_conv2_b = nn.conv2d_backward(c_conv2, gh2, tasks)
        gh1 = nn.relu_dropout_backward(c_act1, ga1)
        g_conv1_w, g_conv1_b = nn.conv2d_weight_grad(c_conv1, gh1, tasks)
    return {
        "conv1_w": g_conv1_w, "conv1_b": g_conv1_b,
        "conv2_w": g_conv2_w, "conv2_b": g_conv2_b,
        "fc1_w": g_fc1_w, "fc1_b": g_fc1_b,
        "fc2_w": g_fc2_w, "fc2_b": g_fc2_b,
    }


def _input(model: EncoderModel, rows) -> np.ndarray:
    """Rows as an (m, w) float64 array in [0, 1] whose image has the
    model's side s: (s-1)**2 < w <= s*s."""
    s = model.input_side
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0 or image_side(x.shape[1]) != s:
        raise ValueError(f"rows of shape {x.shape} do not fit model input side {s}")
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError("input values must lie in [0, 1]")
    return x


def encode_batch(model: EncoderModel, images) -> np.ndarray:
    """Embed an (m, w) array of rows, or a list of rows, at inference (no
    noise, no dropout), BLOCK_ROWS rows at a time, as an (m, embed_dim)
    array, m = 0 included; output rows have unit Euclidean norm.  The
    blocks run on nn.map_blocks' threads, each thread's blocks in one
    _workspace for min(m, BLOCK_ROWS) rows; a block's bits do not depend
    on the thread it runs on."""
    x = _input(model, images)
    m = len(x)
    out = np.empty((m, model.config.embed_dim))

    def run(starts, work):
        for lo in starts:
            out[lo:lo + BLOCK_ROWS] = _infer(model, x[lo:lo + BLOCK_ROWS], work)

    nn.map_blocks(run, range(0, m, BLOCK_ROWS), lambda: _workspace(model, min(m, BLOCK_ROWS)))
    return out


def triplet_loss(ea: np.ndarray, ep: np.ndarray, en: np.ndarray, alpha: float) -> float:
    """Hinged triplet loss max(0, ||ea-ep||^2 - ||ea-en||^2 + alpha)."""
    ea, ep, en = (np.asarray(v, dtype=np.float64) for v in (ea, ep, en))
    if not (ea.shape == ep.shape == en.shape) or ea.ndim != 1:
        raise ValueError(f"embedding shapes differ: {ea.shape}, {ep.shape}, {en.shape}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    return float(np.maximum(_raw_hinges(np.stack([ea, ep, en]), alpha)[0], 0.0))


def _raw_hinges(e: np.ndarray, alpha: float) -> np.ndarray:
    """Each triplet's raw hinge ||ea-ep||^2 - ||ea-en||^2 + alpha, from the
    (3b, d) anchor, positive and negative embeddings stacked in that order."""
    ea, ep, en = np.split(e, 3)
    return ((ea - ep) ** 2).sum(axis=1) - ((ea - en) ** 2).sum(axis=1) + alpha


def _objective(e: np.ndarray, caches, alpha: float):
    """The training objective of a forward's (3b, d) anchor, positive and
    negative embeddings and its caches: the b raw hinges, and the gradient
    of the mean hinged loss for every parameter, None when no hinge is
    active.  Only active hinges carry gradient, each divided by b."""
    raw = _raw_hinges(e, alpha)
    active = (raw > 0.0)[:, None].astype(np.float64)
    if not active.any():
        return raw, None
    ea, ep, en = np.split(e, 3)
    ge = np.concatenate([2.0 * (en - ep), -2.0 * (ea - ep), 2.0 * (ea - en)])
    return raw, _backward(caches, ge * np.tile(active / len(raw), (3, 1)))


def train_step(model: EncoderModel, batch: np.ndarray, opt_state: nn.AdamState,
               rng: np.random.Generator) -> tuple[EncoderModel, nn.AdamState, float]:
    """One optimization step over a (3, b, w) batch of anchor, positive
    and negative rows.

    All three branches run through the shared parameters in a single
    stacked forward pass.  Gradient flows only through triplets whose
    hinge is active; a batch with no active hinge leaves the parameters
    untouched.  The reported mean loss is pre-update.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] != 3:
        raise ValueError(f"batch of shape {batch.shape} is not (3, b, width)")
    b = batch.shape[1]
    if b == 0:
        raise ValueError("empty batch")
    if not all(p.flags.writeable for p in model.params.values()):
        raise ValueError("model parameters are read-only (trained or loaded); "
                         "train a model whose params are writable copies")

    # caches live until the step returns: freed before the update, they let
    # glibc trim the heap top, and the next step faults it back in
    e, caches = _forward(model, _input(model, batch.reshape(3 * b, -1)), rng)
    raw, grads = _objective(e, caches, model.config.margin_alpha)
    mean_loss = float(np.maximum(raw, 0.0).mean())
    if not np.isfinite(mean_loss):
        raise NonFiniteLossError(
            f"non-finite batch loss {mean_loss}; raw losses: {raw.tolist()}"
        )
    if grads is None:
        return model, opt_state, mean_loss
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteLossError(f"non-finite gradient in {name}")
    nn.adam_update(model.params, grads, opt_state)
    return model, opt_state, mean_loss


def gradient_check(model: EncoderModel, triplet: np.ndarray) -> float:
    """Max relative error between backprop and central finite differences
    over every parameter entry of the full triplet loss, at the config's
    margin, of a (3, w) array of anchor, positive and negative rows.  The
    loss and gradient checked are the ones ``train_step`` applies, from
    the same code, at b = 1.

    Requires a deterministic model (dropout and input noise disabled) and
    an active hinge; both are reported distinctly otherwise.  The
    perturbations go to a copy of the parameters, so read-only (trained or
    loaded) parameters can be checked too.
    """
    cfg = model.config
    if cfg.dropout_rate > 0.0 or cfg.noise_sigma > 0.0:
        raise StochasticModelError(
            "gradient check needs dropout_rate=0 and noise_sigma=0; "
            "stochastic layers invalidate finite differences"
        )
    x = _input(model, triplet)
    if len(x) != 3:
        raise ValueError(f"a triplet has 3 rows, got {len(x)}")
    model = replace(model, params={name: p.copy() for name, p in model.params.items()})

    raw, analytic = _objective(*_forward(model, x, None), cfg.margin_alpha)
    if analytic is None:
        raise HingeInactiveError(
            f"raw loss {raw[0]:.6g} <= 0: the hinge is inactive and the check is vacuous"
        )

    max_rel = 0.0
    work = _workspace(model, 3)
    for name in PARAM_ORDER:
        p = model.params[name]
        a = analytic[name]
        for i in np.ndindex(p.shape):  # by index: a conv weight is not C-contiguous
            orig = p[i]
            p[i] = orig + FD_STEP
            lo_hi = _raw_hinges(_infer(model, x, work), cfg.margin_alpha)[0]
            p[i] = orig - FD_STEP
            lo_lo = _raw_hinges(_infer(model, x, work), cfg.margin_alpha)[0]
            p[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * FD_STEP)
            ai = a[i]
            # guard keeps finite-difference noise on near-zero entries from
            # masquerading as relative error
            rel = abs(ai - numeric) / max(abs(ai), abs(numeric), 1e-5)
            if rel > max_rel:
                max_rel = rel
    return max_rel


def small_check_config(embed_dim: int) -> EncoderConfig:
    """A deterministic, finite-difference-friendly encoder: tiny filter
    counts, no dropout, no input noise."""
    return EncoderConfig(conv1_filters=6, conv2_filters=8, fc_units=16,
                         embed_dim=embed_dim, dropout_rate=0.0, noise_sigma=0.0)
