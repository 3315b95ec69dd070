"""Hostile .stne files: every malformed file raises ModelFormatError."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc.encoder import EncoderConfig, init_model
from driftloc.errors import ModelFormatError
from driftloc.localizer import EmbeddingIndex
from driftloc.model_io import load_model_full, save_model


def _tiny_model_bytes(tmp_path_factory) -> bytes:
    cfg = EncoderConfig(conv1_filters=2, conv2_filters=2, fc_units=3, embed_dim=2)
    model = init_model(cfg, 3, seed=0)
    emb = np.array([[1, 0], [0, 1], [0.6, 0.8]], dtype=np.float32)
    index = EmbeddingIndex(embeddings=emb, rp_ids=np.array([0, 1, 1]),
                           xs=np.array([0.0, 1.5, 1.5]), ys=np.zeros(3))
    path = tmp_path_factory.mktemp("model") / "tiny.stne"
    save_model(model, index, path, extra={"ap_registry": "a,b,c"})
    return path.read_bytes()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return _tiny_model_bytes(tmp_path_factory), tmp_path_factory.mktemp("fuzz") / "m.stne"


def _layout(data: bytes):
    """Offsets of the u32 structural fields (magic, version, lengths,
    counts, ranks, dims) and the (offset, length) of each parameter name."""
    def u32(at):
        return struct.unpack_from("<I", data, at)[0]
    fields = [0, 4, 8]
    at = 12 + u32(8)
    fields.append(at)
    n_params, at = u32(at), at + 4
    names = []
    for _ in range(n_params):
        fields.append(at)
        names.append((at + 4, u32(at)))
        at += 4 + u32(at)
        fields.append(at)
        rank, at = u32(at), at + 4
        dims = struct.unpack_from(f"<{rank}I", data, at)
        fields += [at + 4 * i for i in range(rank)]
        at += 4 * rank + 4 * math.prod(dims)
    fields.append(at)  # index entry count
    return fields, names


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _rejected(path, data: bytes) -> None:
    path.write_bytes(data)
    with pytest.raises(ModelFormatError):
        load_model_full(path)


def test_tiny_model_loads(tiny):
    data, path = tiny
    path.write_bytes(data)
    _, index, extra = load_model_full(path)
    assert len(index) == 3 and extra == {"ap_registry": "a,b,c"}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncation_rejected(tiny, data):
    raw, path = tiny
    _rejected(path, raw[:data.draw(st.integers(0, len(raw) - 1))])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bit_flip_rejected(tiny, data):
    raw, path = tiny
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _rejected(path, bytes(flipped))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_edit_with_valid_crc_rejected(tiny, data):
    raw, path = tiny
    body = bytearray(raw[:-4])
    fields, _ = _layout(raw)
    at = data.draw(st.sampled_from(fields))
    old = struct.unpack_from("<I", body, at)[0]
    new = data.draw(st.integers(0, 2**32 - 1).filter(lambda v: v != old))
    struct.pack_into("<I", body, at, new)
    _rejected(path, _with_crc(bytes(body)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parameter_name_edit_with_valid_crc_rejected(tiny, data):
    raw, path = tiny
    body = bytearray(raw[:-4])
    _, names = _layout(raw)
    at, n = data.draw(st.sampled_from(names))
    new = data.draw(st.binary(min_size=n, max_size=n).filter(lambda b: b != body[at:at + n]))
    body[at:at + n] = new
    _rejected(path, _with_crc(bytes(body)))


@pytest.mark.parametrize("edit", ["non-utf8 name", "dims overflow int64",
                                  "zero dim beside huge dims"])
def test_hostile_parameter_fields(tiny, edit):
    # the first parameter is conv1_w, dims (2, 1, 2, 2)
    raw, path = tiny
    body = bytearray(raw[:-4])
    name_at, n = _layout(raw)[1][0]
    dims_at = name_at + n + 4
    if edit == "non-utf8 name":
        body[name_at:name_at + n] = b"\xff" * n
    elif edit == "dims overflow int64":
        struct.pack_into("<4I", body, dims_at, 0xFFFFFFFF, 0xFFFFFFFF, 1, 1)
    else:
        struct.pack_into("<4I", body, dims_at, 0, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
    _rejected(path, _with_crc(bytes(body)))


@pytest.mark.parametrize("field, value", [("margin_alpha", "nan"), ("noise_sigma", "inf")])
def test_non_finite_config_value_rejected(tiny, field, value):
    # a CRC-valid file whose config block carries a non-finite value
    raw, path = tiny
    n = struct.unpack_from("<I", raw, 8)[0]
    lines = raw[12:12 + n].decode().splitlines(keepends=True)
    assert any(line.startswith(field + "=") for line in lines)
    block = "".join(f"{field}={value}\n" if line.startswith(field + "=") else line
                    for line in lines).encode()
    path.write_bytes(_with_crc(raw[:8] + struct.pack("<I", len(block)) + block + raw[12 + n:-4]))
    with pytest.raises(ModelFormatError, match=f"config block invalid: {field}"):
        load_model_full(path)


@pytest.mark.parametrize("edit, message", [
    ("input side below the convolutions' minimum", "too small"),
    ("parameter outside the encoder's set", "unknown parameters"),
    ("parameter given twice", "appears twice"),
])
def test_hostile_geometry_and_parameter_set(tiny, edit, message):
    # CRC-valid files whose structure parses; only the model's geometry and
    # parameter-set checks can refuse them
    raw, path = tiny
    body = raw[:-4]
    fields, names = _layout(raw)
    count_at, blocks_end = fields[3], fields[-1]
    if edit.startswith("input side"):
        # side 1 gives the same fc1 shape as side 3: (1 - 2)**2 == (3 - 2)**2
        assert body.count(b"\ninput_side=3\n") == 1
        body = body.replace(b"\ninput_side=3\n", b"\ninput_side=1\n")
    else:
        if edit.startswith("parameter outside"):
            block = (struct.pack("<I", 3) + b"zzz" + struct.pack("<II", 1, 1)
                     + np.float32(0.5).tobytes())
        else:
            block = body[names[-1][0] - 4:blocks_end]  # fc2_b once more
        body = (body[:count_at] + struct.pack("<I", 9) + body[count_at + 4:blocks_end]
                + block + body[blocks_end:])
    path.write_bytes(_with_crc(body))
    with pytest.raises(ModelFormatError, match=message):
        load_model_full(path)
