"""Binary persistence for trained models.

Layout (all integers little-endian uint32 unless noted):

    magic  b"STNE"
    format version
    config block: byte length + UTF-8 "key=value\\n" lines
    parameter count, then per parameter:
        name length + name bytes + rank + dims... + row-major float32 values
    index entry count, then per entry:
        embed_dim float32 + int32 rp_id + float32 x + float32 y
    CRC-32 of all preceding bytes

The checksum is verified before anything is parsed, so a corrupted file
never yields a partial model.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .encoder import PARAM_ORDER, EncoderConfig, EncoderModel
from .errors import ModelFormatError
from .localizer import EmbeddingIndex

MAGIC = b"STNE"
FORMAT_VERSION = 1

_CONFIG_FIELDS = [f.name for f in dataclass_fields(EncoderConfig)]


def _index_dtype(d: int) -> np.dtype:
    """One packed index entry: embedding, rp_id, x, y."""
    return np.dtype([("e", "<f4", (d,)), ("rp", "<i4"), ("x", "<f4"), ("y", "<f4")])


def _fmt(v) -> str:
    # repr round-trips floats exactly; ints stay ints.
    return repr(v) if isinstance(v, float) else str(v)


def _config_lines(model: EncoderModel, extra: dict[str, str] | None) -> bytes:
    items: list[tuple[str, str]] = []
    for name in _CONFIG_FIELDS:
        items.append((name, _fmt(getattr(model.config, name))))
    items.append(("input_side", str(model.input_side)))
    for key, val in (extra or {}).items():
        if key in _CONFIG_FIELDS or key == "input_side":
            raise ValueError(f"extra metadata key {key!r} shadows a config field")
        items.append((key, str(val)))
    for key, val in items:
        if "=" in key or "\n" in key or "\n" in val:
            raise ValueError(f"metadata entry {key!r} contains reserved characters")
    return "".join(f"{k}={v}\n" for k, v in items).encode("utf-8")


def save_model(model: EncoderModel, index: EmbeddingIndex, path: str | Path,
               extra: dict[str, str] | None = None) -> None:
    """Serialize a model and its index; parameters are stored as float32."""
    if model.config.embed_dim != index.embed_dim:
        raise ValueError("model and index disagree on embedding length")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)

    cfg = _config_lines(model, extra)
    out += struct.pack("<I", len(cfg))
    out += cfg

    out += struct.pack("<I", len(PARAM_ORDER))
    for name in PARAM_ORDER:
        arr = model.params[name]
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb))
        out += nb
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += np.ascontiguousarray(arr, dtype="<f4").tobytes()

    entries = np.empty(len(index), dtype=_index_dtype(index.embed_dim))
    entries["e"], entries["rp"] = index.embeddings, index.rp_ids
    entries["x"], entries["y"] = index.xs, index.ys
    out += struct.pack("<I", len(entries))
    out += entries.tobytes()

    out += struct.pack("<I", zlib.crc32(bytes(out)))
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError("model file truncated")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _parse_config(block: bytes) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"config block is not UTF-8: {exc}") from None
    for line in text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise ModelFormatError(f"malformed config line {line!r}")
        key, _, val = line.partition("=")
        pairs[key] = val
    return pairs


def load_model_full(path: str | Path) -> tuple[EncoderModel, EmbeddingIndex, dict[str, str]]:
    """Load a model, its index, and any extra metadata stored with it."""
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise ModelFormatError("file too short to be a model")
    stored = struct.unpack("<I", data[-4:])[0]
    actual = zlib.crc32(data[:-4])
    if stored != actual:
        raise ModelFormatError(
            f"checksum mismatch (stored {stored:#010x}, computed {actual:#010x}); "
            "file is corrupted"
        )
    r = _Reader(data[:-4])
    if r.take(4) != MAGIC:
        raise ModelFormatError("bad magic bytes; not a model file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version} (this build reads {FORMAT_VERSION})"
        )

    pairs = _parse_config(r.take(r.u32()))
    try:
        kwargs = {}
        for f in dataclass_fields(EncoderConfig):
            raw = pairs[f.name]
            kwargs[f.name] = int(raw) if isinstance(f.default, int) else float(raw)
        cfg = EncoderConfig(**kwargs)
        input_side = int(pairs["input_side"])
    except KeyError as exc:
        raise ModelFormatError(f"config block missing field {exc}") from None
    except ValueError as exc:
        raise ModelFormatError(f"config block invalid: {exc}") from None
    extra = {k: v for k, v in pairs.items()
             if k not in _CONFIG_FIELDS and k != "input_side"}

    n_params = r.u32()
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"parameter name is not UTF-8: {exc}") from None
        if name in params:
            raise ModelFormatError(f"parameter {name!r} appears twice")
        rank = r.u32()
        if rank > 8:
            raise ModelFormatError(f"parameter {name!r}: implausible rank {rank}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        raw = r.take(4 * math.prod(dims))  # Python ints: no overflow
        try:
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float64)
        except ValueError as exc:  # e.g. a zero dim beside dims too large to address
            raise ModelFormatError(f"parameter {name!r}: bad dims {dims}: {exc}") from None
        params[name].setflags(write=False)  # the model stays the one its index embeds
    try:
        model = EncoderModel(config=cfg, input_side=input_side, params=params)
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent parameters: {exc}") from None

    n = r.u32()
    dtype = _index_dtype(cfg.embed_dim)
    entries = np.frombuffer(r.take(n * dtype.itemsize), dtype=dtype)
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} trailing bytes after index")
    try:
        index = EmbeddingIndex(embeddings=entries["e"], rp_ids=entries["rp"],
                               xs=entries["x"], ys=entries["y"])
    except ValueError as exc:
        raise ModelFormatError(f"invalid index: {exc}") from None
    return model, index, extra


def load_model(path: str | Path) -> tuple[EncoderModel, EmbeddingIndex]:
    """Load a model and its index; round-trips :func:`save_model` exactly."""
    model, index, _ = load_model_full(path)
    return model, index
