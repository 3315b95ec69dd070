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


@pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_extra_value_with_other_line_breaks_round_trips(tmp_path, char):
    # str.splitlines() breaks on each of these; the writer forbids only
    # "\n", its own separator, so the reader must split on "\n" alone
    cfg = EncoderConfig(conv1_filters=2, conv2_filters=2, fc_units=3, embed_dim=2)
    index = EmbeddingIndex(embeddings=np.eye(2, dtype=np.float32), rp_ids=np.array([0, 1]),
                           xs=np.zeros(2), ys=np.zeros(2))
    extra = {"ap_registry": f"ap_00{char}0,001", "note": f"a{char}b=c"}
    path = tmp_path / "m.stne"
    save_model(init_model(cfg, 3, seed=0), index, path, extra=extra)
    model, _, got = load_model_full(path)
    assert got == extra and model.config == cfg


def test_loaded_arrays_hold_no_view_of_the_file(tiny):
    # the loader reads fields as views of the file's bytes; what it returns
    # owns its memory, so a loaded model does not keep the file alive
    data, path = tiny
    path.write_bytes(data)
    model, index, _ = load_model_full(path)
    for a in (*model.params.values(), index.embeddings, index.rp_ids, index.xs,
              index.ys, *index.knn):
        while isinstance(a.base, np.ndarray):
            a = a.base
        assert a.base is None


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


def _config_block(data: bytes) -> str:
    n = struct.unpack_from("<I", data, 8)[0]
    return data[12:12 + n].decode()


def _with_config_line(raw: bytes, field: str, value: str | None) -> bytes:
    """raw, CRC-valid, with its `field=` line set to value, or dropped for None."""
    n = struct.unpack_from("<I", raw, 8)[0]
    lines = _config_block(raw).splitlines(keepends=True)
    assert sum(line.startswith(field + "=") for line in lines) == 1
    block = "".join(line if not line.startswith(field + "=") else
                    "" if value is None else f"{field}={value}\n" for line in lines).encode()
    return _with_crc(raw[:8] + struct.pack("<I", len(block)) + block + raw[12 + n:-4])


def test_default_config_block_is_pinned(tmp_path):
    # the format's fixed lines, in order: EncoderConfig's fields with the
    # stride line after filter_size, then the input side
    index = EmbeddingIndex(embeddings=np.eye(5, dtype=np.float32)[:2], rp_ids=np.array([0, 1]),
                           xs=np.zeros(2), ys=np.zeros(2))
    path = tmp_path / "m.stne"
    save_model(init_model(EncoderConfig(), 3, seed=0), index, path)
    assert _config_block(path.read_bytes()) == (
        "conv1_filters=64\nconv2_filters=128\nfilter_size=2\nstride=1\nfc_units=100\n"
        "embed_dim=5\ndropout_rate=0.25\nmargin_alpha=0.2\nnoise_sigma=0.1\ninput_side=3\n")


@pytest.mark.parametrize("key", ["stride", "input_side", "embed_dim"])
def test_extra_key_cannot_shadow_a_fixed_line(tmp_path, key):
    cfg = EncoderConfig(conv1_filters=2, conv2_filters=2, fc_units=3, embed_dim=2)
    index = EmbeddingIndex(embeddings=np.eye(2, dtype=np.float32), rp_ids=np.array([0, 1]),
                           xs=np.zeros(2), ys=np.zeros(2))
    with pytest.raises(ValueError, match=f"{key!r} shadows"):
        save_model(init_model(cfg, 3, seed=0), index, tmp_path / "m.stne", extra={key: "1"})


@pytest.mark.parametrize("field, value", [("margin_alpha", "nan"), ("noise_sigma", "inf"),
                                          ("stride", "2")])
def test_non_finite_config_value_rejected(tiny, field, value):
    # a CRC-valid file whose config block carries a non-finite value, or a
    # stride the convolutions do not have
    raw, path = tiny
    path.write_bytes(_with_config_line(raw, field, value))
    with pytest.raises(ModelFormatError, match=f"config block invalid: {field}"):
        load_model_full(path)


def test_config_block_without_stride_line_rejected(tiny):
    raw, path = tiny
    path.write_bytes(_with_config_line(raw, "stride", None))
    with pytest.raises(ModelFormatError, match="config block missing field 'stride'"):
        load_model_full(path)


@pytest.mark.parametrize("line", ["embed_dim=2", "ap_registry=x,y,z"])
def test_config_key_given_twice_rejected(tiny, line):
    # a CRC-valid file whose config block ends with a second line for a
    # fixed key or an extra key; neither copy may win
    raw, path = tiny
    n = struct.unpack_from("<I", raw, 8)[0]
    block = (_config_block(raw) + line + "\n").encode()
    path.write_bytes(_with_crc(raw[:8] + struct.pack("<I", len(block)) + block + raw[12 + n:-4]))
    key = line.partition("=")[0]
    with pytest.raises(ModelFormatError, match=f"config key '{key}' appears twice"):
        load_model_full(path)


@pytest.mark.parametrize("edit, message", [
    ("input side below the convolutions' minimum", "too small"),
    ("parameter outside the encoder's set", "9 parameters, expected 8"),
    ("parameter given twice", "9 parameters, expected 8"),
])
def test_hostile_geometry_and_parameter_set(tiny, edit, message):
    # CRC-valid files whose structure parses; only the model's geometry
    # check and the loader's parameter count can refuse them
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


def test_parameters_in_another_order_rejected(tiny):
    # a CRC-valid file with the first two parameter blocks swapped: the
    # reader takes the parameters in the order the writer writes them
    raw, path = tiny
    body = raw[:-4]
    (first, _), (second, _), (third, _) = _layout(raw)[1][:3]
    a, b = body[first - 4:second - 4], body[second - 4:third - 4]
    path.write_bytes(_with_crc(body[:first - 4] + b + a + body[third - 4:]))
    with pytest.raises(ModelFormatError, match="^expected parameter 'conv1_w'$"):
        load_model_full(path)


def test_trailing_bytes_after_index_rejected(tiny):
    raw, path = tiny
    path.write_bytes(_with_crc(raw[:-4] + b"\0" * 3))
    with pytest.raises(ModelFormatError, match="^3 trailing bytes after index$"):
        load_model_full(path)


@pytest.mark.parametrize("embedding, message", [
    ((np.nan, 0.0), "index contains non-finite values"),
    ((2.0, 0.0), "index embeddings must be unit-norm"),
])
def test_invalid_index_entry_rejected(tiny, embedding, message):
    # a CRC-valid file whose first index entry is not a unit embedding
    raw, path = tiny
    body = bytearray(raw[:-4])
    entries_at = _layout(raw)[0][-1] + 4
    struct.pack_into("<2f", body, entries_at, *embedding)
    path.write_bytes(_with_crc(bytes(body)))
    with pytest.raises(ModelFormatError, match=f"^invalid index: {message}$"):
        load_model_full(path)


def test_config_block_not_utf8_rejected(tiny):
    raw, path = tiny
    n = struct.unpack_from("<I", raw, 8)[0]
    block = b"\xff" + raw[13:12 + n]
    path.write_bytes(_with_crc(raw[:12] + block + raw[12 + n:-4]))
    with pytest.raises(ModelFormatError, match="^config block is not UTF-8: "):
        load_model_full(path)
