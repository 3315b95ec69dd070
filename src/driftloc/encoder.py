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
gives the same bits as the training forward without dropout.
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

PARAM_ORDER = ("conv1_w", "conv1_b", "conv2_w", "conv2_b",
               "fc1_w", "fc1_b", "fc2_w", "fc2_b")


@dataclass(frozen=True)
class EncoderConfig:
    conv1_filters: int = 64
    conv2_filters: int = 128
    filter_size: int = 2
    stride: int = 1
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
        if self.stride != 1:
            raise ValueError("only stride 1 is supported")


def min_input_side(cfg: EncoderConfig) -> int:
    """Smallest image side the two valid convolutions can consume."""
    return 2 * (cfg.filter_size - 1) + 1


def _param_shapes(cfg: EncoderConfig, input_side: int) -> dict[str, tuple[int, ...]]:
    if input_side < min_input_side(cfg):
        raise ValueError(
            f"input side {input_side} too small: two {cfg.filter_size}x{cfg.filter_size} "
            f"valid convolutions need side >= {min_input_side(cfg)}"
        )
    k = cfg.filter_size
    side2 = input_side - 2 * (k - 1)
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
    encoder.  ``params`` is the model's own dict, with the conv weights in
    :func:`nn.gemm_layout`.  Training steps update it in place;
    ``train()`` and ``load_model_full`` return it read-only."""

    config: EncoderConfig
    input_side: int
    params: dict[str, np.ndarray]

    def __post_init__(self):
        shapes = _param_shapes(self.config, self.input_side)
        names, want = set(self.params), set(PARAM_ORDER)
        if names != want:
            raise ValueError(f"missing parameters {sorted(want - names)}, "
                             f"unknown parameters {sorted(names - want)}")
        for name in PARAM_ORDER:
            got = self.params[name].shape
            if got != shapes[name]:
                raise ValueError(f"parameter {name}: shape {got} != expected {shapes[name]}")
            if not np.all(np.isfinite(self.params[name])):
                raise ValueError(f"parameter {name} contains non-finite values")
        self.params = {name: nn.gemm_layout(p) if name in ("conv1_w", "conv2_w") else p
                       for name, p in self.params.items()}


def init_model(cfg: EncoderConfig, input_side: int, seed: int) -> EncoderModel:
    """Fresh parameters: He-style fan-in-scaled uniform weights, zero
    biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(cfg, input_side)
    fan_in = {
        "conv1_w": cfg.filter_size ** 2,
        "conv2_w": cfg.filter_size ** 2 * cfg.conv1_filters,
        "fc1_w": shapes["fc1_w"][0],
        "fc2_w": cfg.fc_units,
    }
    params: dict[str, np.ndarray] = {}
    for name in PARAM_ORDER:
        if name.endswith("_b"):
            params[name] = np.zeros(shapes[name], dtype=np.float64)
        else:
            limit = np.sqrt(6.0 / fan_in[name])
            params[name] = rng.uniform(-limit, limit, size=shapes[name])
    return EncoderModel(config=cfg, input_side=input_side, params=params)


def _forward(model: EncoderModel, rows: np.ndarray, train: bool,
             rng: np.random.Generator | None):
    """(N, w) rows -> unit embeddings (N, d) plus backward caches.  Each
    conv output is copied to C-contiguous memory first, so dropout draws
    its mask in NCHW order; rebinding the name frees the kernel's output
    before the next allocation."""
    s = model.input_side
    x = pad_square(rows).reshape(len(rows), 1, s, s)
    p = model.params
    rate = model.config.dropout_rate if train else 0.0
    h1, c_conv1 = nn.conv2d_forward(x, p["conv1_w"], p["conv1_b"])
    h1 = np.ascontiguousarray(h1)
    a1, c_act1 = nn.relu_dropout_forward(h1, rate, rng)
    h2, c_conv2 = nn.conv2d_forward(a1, p["conv2_w"], p["conv2_b"])
    h2 = np.ascontiguousarray(h2)
    a2, c_act2 = nn.relu_dropout_forward(h2, rate, rng)
    flat = a2.reshape(a2.shape[0], -1)
    h3, c_fc1 = nn.dense_forward(flat, p["fc1_w"], p["fc1_b"])
    a3, c_act3 = nn.relu_dropout_forward(h3, 0.0, None)
    z, c_fc2 = nn.dense_forward(a3, p["fc2_w"], p["fc2_b"])
    e, c_norm = nn.l2norm_forward(z)
    caches = (c_conv1, c_act1, c_conv2, c_act2, a2.shape,
              c_fc1, c_act3, c_fc2, c_norm)
    return e, caches


def _infer(model: EncoderModel, rows: np.ndarray) -> np.ndarray:
    """(N, w) rows -> unit embeddings (N, d), the inference forward: ReLU
    in place on each layer's fresh output, no dropout, and each layer's
    cache and input dropped as soon as the layer returns.  Bit-equal to
    ``_forward(model, rows, train=False, rng=None)[0]``."""
    s = model.input_side
    p = model.params
    h = pad_square(rows).reshape(len(rows), 1, s, s)
    h = nn.conv2d_forward(h, p["conv1_w"], p["conv1_b"])[0]
    np.maximum(h, 0.0, out=h)
    h = nn.conv2d_forward(h, p["conv2_w"], p["conv2_b"])[0]
    np.maximum(h, 0.0, out=h)
    h = nn.dense_forward(h.reshape(len(h), -1), p["fc1_w"], p["fc1_b"])[0]
    np.maximum(h, 0.0, out=h)
    h = nn.dense_forward(h, p["fc2_w"], p["fc2_b"])[0]
    return nn.l2norm_forward(h)[0]


def _backward(caches, ge: np.ndarray) -> dict[str, np.ndarray]:
    (c_conv1, c_act1, c_conv2, c_act2, conv2_out_shape,
     c_fc1, c_act3, c_fc2, c_norm) = caches
    gz = nn.l2norm_backward(c_norm, ge)
    ga3, g_fc2_w, g_fc2_b = nn.dense_backward(c_fc2, gz)
    gh3 = nn.relu_dropout_backward(c_act3, ga3)
    gflat, g_fc1_w, g_fc1_b = nn.dense_backward(c_fc1, gh3)
    gh2 = nn.relu_dropout_backward(c_act2, gflat.reshape(conv2_out_shape))
    ga1, g_conv2_w, g_conv2_b = nn.conv2d_backward(c_conv2, gh2)
    gh1 = nn.relu_dropout_backward(c_act1, ga1)
    _, g_conv1_w, g_conv1_b = nn.conv2d_backward(c_conv1, gh1)
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
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("input values must lie in [0, 1]")
    return x


def _train_forward(model: EncoderModel, rows: np.ndarray, rng: np.random.Generator):
    """The stochastic forward of training: Gaussian input noise on every
    entry of each row, then the forward with dropout, both drawn from
    ``rng`` in that order."""
    sigma = model.config.noise_sigma
    if sigma > 0.0:
        rows = noise_flat(rows, sigma, rng)
    return _forward(model, rows, train=True, rng=rng)


def encode_batch(model: EncoderModel, images) -> np.ndarray:
    """Embed an (m, w) array of rows, or a list of rows, at inference (no
    noise, no dropout), BLOCK_ROWS rows at a time; output rows have unit
    Euclidean norm."""
    if len(images) == 0:
        raise ValueError("empty image batch")
    x = _input(model, images)
    return np.concatenate([_infer(model, x[lo:lo + BLOCK_ROWS])
                           for lo in range(0, len(x), BLOCK_ROWS)])


def triplet_loss(ea: np.ndarray, ep: np.ndarray, en: np.ndarray, alpha: float) -> float:
    """Hinged triplet loss max(0, ||ea-ep||^2 - ||ea-en||^2 + alpha)."""
    ea, ep, en = (np.asarray(v, dtype=np.float64) for v in (ea, ep, en))
    if not (ea.shape == ep.shape == en.shape) or ea.ndim != 1:
        raise ValueError(f"embedding shapes differ: {ea.shape}, {ep.shape}, {en.shape}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    _, loss = _batch_losses(ea[None], ep[None], en[None], alpha)
    return float(loss[0])


def _batch_losses(ea: np.ndarray, ep: np.ndarray, en: np.ndarray, alpha: float):
    dp = ((ea - ep) ** 2).sum(axis=1)
    dn = ((ea - en) ** 2).sum(axis=1)
    raw = dp - dn + alpha
    return raw, np.maximum(raw, 0.0)


def _hinge_grad(ea: np.ndarray, ep: np.ndarray, en: np.ndarray) -> np.ndarray:
    """Gradient of each raw hinge with respect to its anchor, positive and
    negative embeddings, stacked in that order as (3b, d)."""
    return np.concatenate([2.0 * (en - ep), -2.0 * (ea - ep), 2.0 * (ea - en)])


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
    cfg = model.config

    e, caches = _train_forward(model, _input(model, batch.reshape(3 * b, -1)), rng)
    ea, ep, en = e[:b], e[b:2 * b], e[2 * b:]

    raw, losses = _batch_losses(ea, ep, en, cfg.margin_alpha)
    mean_loss = float(losses.mean())
    if not np.isfinite(mean_loss):
        raise NonFiniteLossError(
            f"non-finite batch loss {mean_loss}; raw losses: {raw.tolist()}"
        )

    active = (raw > 0.0)[:, None].astype(np.float64)
    if not active.any():
        return model, opt_state, mean_loss

    grads = _backward(caches, _hinge_grad(ea, ep, en) * np.tile(active / b, (3, 1)))
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteLossError(f"non-finite gradient in {name}")
    nn.adam_update(model.params, grads, opt_state)
    return model, opt_state, mean_loss


def _raw_loss(e: np.ndarray, alpha: float) -> float:
    """Raw hinge of the (3, d) anchor, positive and negative embeddings."""
    raw, _ = _batch_losses(e[0:1], e[1:2], e[2:3], alpha)
    return float(raw[0])


def gradient_check(model: EncoderModel, triplet: np.ndarray, alpha: float,
                   step: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences
    over every parameter entry of the full triplet loss of a (3, w)
    array of anchor, positive and negative rows.

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

    e, caches = _forward(model, x, train=False, rng=None)
    raw = _raw_loss(e, alpha)
    if raw <= 0.0:
        raise HingeInactiveError(
            f"raw loss {raw:.6g} <= 0: the hinge is inactive and the check is vacuous"
        )
    analytic = _backward(caches, _hinge_grad(e[0:1], e[1:2], e[2:3]))

    max_rel = 0.0
    for name in PARAM_ORDER:
        p = model.params[name]
        a = analytic[name]
        for i in np.ndindex(p.shape):  # by index: a conv weight is not C-contiguous
            orig = p[i]
            p[i] = orig + step
            lo_hi = _raw_loss(_infer(model, x), alpha)
            p[i] = orig - step
            lo_lo = _raw_loss(_infer(model, x), alpha)
            p[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * step)
            ai = a[i]
            # guard keeps finite-difference noise on near-zero entries from
            # masquerading as relative error
            rel = abs(ai - numeric) / max(abs(ai), abs(numeric), 1e-5)
            if rel > max_rel:
                max_rel = rel
    return max_rel


def small_check_config(embed_dim: int = 3) -> EncoderConfig:
    """A deterministic, finite-difference-friendly encoder: tiny filter
    counts, no dropout, no input noise."""
    return EncoderConfig(conv1_filters=6, conv2_filters=8, fc_units=16,
                         embed_dim=embed_dim, dropout_rate=0.0, noise_sigma=0.0)
