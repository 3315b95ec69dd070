"""In-memory span tracing around driftloc's module bindings.

The benchmark times each layer from outside: it replaces the attribute a
caller looks up (``driftloc.localizer.encode_batch``, ``driftloc.nn.conv2d_forward``,
...) with a wrapper that records a span, and restores the original when the
traced section ends.  Nothing under ``src/`` changes.  A binding that no longer
exists is reported as absent and skipped, so a refactor that renames an
internal function loses that layer's numbers but does not break the run.

A span records its name, start, end, parent span and request id (the batch
index in training, the query index in evaluation and prediction).  Kernel
spans also carry flop and byte counts computed from the argument shapes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

# Spans with these names start a new request id; every span opened after one
# belongs to it until the next one opens.
REQUEST_ROOTS = ("sampler.make_batch", "localizer.predict", "localizer.baseline_predict")

ROOT = "bench.unit"


class Span:
    __slots__ = ("name", "start", "end", "parent", "req", "failed", "counts")

    def __init__(self, name, start, parent, req):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.req = req
        self.failed = False
        self.counts = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "req": self.req, "failed": self.failed,
                "counts": self.counts}


class Tracer:
    """Collects spans of one traced section; single-threaded, synchronous."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._req = -1
        self._next_req = 0

    def open(self, name: str) -> int:
        if name in REQUEST_ROOTS:
            self._req = self._next_req
            self._next_req += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._req))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, i: int, failed: bool = False) -> None:
        span = self.spans[i]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self.close(i, failed)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


# ---- computed kernel counts (float64: 8 bytes per value) -------------------

def _conv_fwd(args, out):
    x, w = args[0], args[1]
    n, c = x.shape[0], x.shape[1]
    f, k = w.shape[0], w.shape[2]
    y = out[0]
    flop = 2 * n * f * c * k * k * y.shape[2] * y.shape[3]
    return f"nn.conv{1 if c == 1 else 2}_fwd", {
        "flop": flop, "bytes": 8 * (x.size + w.size + y.size)}


def _conv_bwd(args, out):
    (x, w), gout = args[0], args[1]
    n, c = x.shape[0], x.shape[1]
    f, k = w.shape[0], w.shape[2]
    flop = 4 * n * f * c * k * k * gout.shape[2] * gout.shape[3]
    written = sum(o.size for o in out)
    return f"nn.conv{1 if c == 1 else 2}_bwd", {
        "flop": flop, "bytes": 8 * (x.size + w.size + gout.size + written)}


def _dense(kind):
    def describe(args, out):
        if kind == "fwd":
            x, w = args[0], args[1]
            read, written, m = 8 * (x.size + w.size), 8 * out[0].size, x.shape[0]
        else:
            (x, w), gout = args[0], args[1]
            read, written, m = 8 * (x.size + w.size + gout.size), 8 * sum(o.size for o in out), x.shape[0]
        rows, cols = w.shape
        # fc1 consumes the flattened conv output; fc2 consumes the fc1 units.
        layer = "fc2" if rows == _fc_units() else "fc1"
        flop = (2 if kind == "fwd" else 4) * m * rows * cols
        return f"nn.{layer}_{kind}", {"flop": flop, "bytes_read": read,
                                      "bytes": read + written}
    return describe


@functools.cache
def _fc_units():
    from driftloc.encoder import EncoderConfig
    return EncoderConfig().fc_units


def _rows(args, out):
    return "encoder.encode_batch", {"rows": len(args[1])}


def _file_bytes(path_arg):
    def describe(args, out):
        return None, {"file_bytes": os.path.getsize(args[path_arg])}
    return describe


# (module, attribute, span name, describe).  ``describe(args, result)`` returns
# a (name or None, counts) pair; it runs after the span closes.
UNIT_BINDINGS = (
    ("driftloc.nn", "conv2d_forward", "nn.conv_fwd", _conv_fwd),
    ("driftloc.nn", "conv2d_backward", "nn.conv_bwd", _conv_bwd),
    ("driftloc.nn", "dense_forward", "nn.dense_fwd", _dense("fwd")),
    ("driftloc.nn", "dense_backward", "nn.dense_bwd", _dense("bwd")),
    ("driftloc.nn", "adam_update", "nn.adam", None),
    ("driftloc.localizer", "train_step", "encoder.train_step", None),
    ("driftloc.localizer", "encode_batch", "encoder.encode_batch", _rows),
    ("driftloc.localizer", "make_batch", "sampler.make_batch", None),
    ("driftloc.sampler", "sample_triplet", "sampler.sample_triplet", None),
    ("driftloc.sampler", "apply_ap_dropout", "augment.ap_dropout", None),
    ("driftloc.sampler", "to_image", "preprocess.to_image", None),
    ("driftloc.localizer", "to_image", "preprocess.to_image", None),
    ("driftloc.data:FingerprintDataset", "by_rp", "data.by_rp", None),
    ("driftloc.localizer", "train", "localizer.train", None),
    ("driftloc.localizer", "predict", "localizer.predict", None),
    ("driftloc.evaluate", "predict", "localizer.predict", None),
    ("driftloc.evaluate", "baseline_predict_with_index", "localizer.baseline_predict", None),
    ("driftloc.evaluate", "evaluate_over_time", "evaluate.harness", None),
    ("driftloc.evaluate", "evaluate_baseline_over_time", "evaluate.harness", None),
    ("driftloc.model_io", "load_model_full", "model_io.load", _file_bytes(0)),
    ("driftloc.model_io", "save_model", "model_io.save", _file_bytes(2)),
)

# Set-up is traced only at the layers that build inputs, so the short
# training some set-ups do does not mix into the timed part's layer numbers.
SETUP_BINDINGS = (
    ("driftloc.simulate", "generate", "simulate.generate", None),
    ("driftloc.data", "load_dataset", "data.load_dataset", None),
    ("driftloc.data", "split_by_ci", "data.split", None),
    ("driftloc.model_io", "save_model", "model_io.save", _file_bytes(2)),
)


def _owner(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


def _wrap(tracer: Tracer, fn, name: str, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(i, failed=True)
            raise
        tracer.close(i)
        if describe is not None:
            try:
                label, counts = describe(args, out if isinstance(out, tuple) else (out,))
            except (AttributeError, IndexError, TypeError, ValueError, OSError):
                label, counts = None, None  # signature changed: keep the span, drop the counts
            span = tracer.spans[i]
            span.name = label or span.name
            span.counts = counts
        return out
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, bindings, absent: set):
    """Patch every present binding for the duration of the block; add the
    ones that are missing to ``absent`` as ``module.attribute`` strings."""
    restore = []
    try:
        for target, attr, name, describe in bindings:
            try:
                owner = _owner(target)
            except (ImportError, AttributeError):
                absent.add(f"{target}.{attr}")
                continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None or not callable(original):
                absent.add(f"{target}.{attr}")
                continue
            setattr(owner, attr, _wrap(tracer, original, name, describe))
            restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ---- per-layer metrics ------------------------------------------------------

MODULES = ("nn", "encoder", "sampler", "augment", "preprocess", "data",
           "localizer", "evaluate", "model_io", "simulate")


def layer_metrics(sections, n_train_fps: int, n_triplets: int) -> dict[str, float]:
    """Per-layer metrics of traced sections (span lists, each from its own
    Tracer): one traced unit section plus its traced set-up.

    Times are self times in ms summed over the sections.  ``n_train_fps``
    and ``n_triplets`` are the training-set size and the triplets one
    ``train()`` call draws (0 when the workload does not train).
    """
    ms = defaultdict(float)
    calls = defaultdict(int)
    failed = defaultdict(int)
    count = defaultdict(float)
    wall = root_self = 0.0

    for spans in sections:
        selfs = self_times(spans)
        in_train = [False] * len(spans)
        for i, s in enumerate(spans):
            p = s.parent
            in_train[i] = p >= 0 and (in_train[p] or spans[p].name == "localizer.train")
            name = s.name
            if name == "encoder.encode_batch" and in_train[i]:
                name = "localizer.index_encode"
                count["index_encode_total_ms"] += (s.end - s.start) * 1e3
            ms[name] += selfs[i] * 1e3
            calls[name] += 1
            failed[name.split(".")[0]] += s.failed
            c = s.counts or {}
            if name == "encoder.encode_batch":
                count["query_rows"] += c.get("rows", 0)
            if name.startswith("nn.conv"):
                count["conv_flop"] += c.get("flop", 0)
                count["conv_s"] += selfs[i]
            if name.startswith("nn.fc1"):
                count["fc1_bytes_read"] += c.get("bytes_read", 0)
            if "file_bytes" in c:
                count["model_bytes"] = c["file_bytes"]
            if in_train[i] and name in ("preprocess.to_image", "data.by_rp"):
                count[name + ".in_train"] += 1
            if name == ROOT:
                wall += s.end - s.start
                root_self += selfs[i]

    m: dict[str, float] = {}
    for layer in ("conv1_fwd", "conv2_fwd", "conv1_bwd", "conv2_bwd", "fc1_fwd", "fc1_bwd", "adam"):
        m[f"nn.{layer}_ms"] = ms[f"nn.{layer}"]
        m[f"nn.{layer}_calls"] = calls[f"nn.{layer}"]
    m["nn.conv_gflop"] = count["conv_flop"] / 1e9
    m["nn.conv_gflops"] = m["nn.conv_gflop"] / count["conv_s"] if count["conv_s"] > 0 else 0.0
    m["nn.fc1_mb_read"] = count["fc1_bytes_read"] / 1e6

    m["encoder.train_step_self_ms"] = ms["encoder.train_step"]
    m["encoder.train_step_calls"] = calls["encoder.train_step"]
    m["encoder.encode_batch_self_ms"] = ms["encoder.encode_batch"]
    m["encoder.encode_calls"] = calls["encoder.encode_batch"]
    m["encoder.rows_per_encode"] = (count["query_rows"] / calls["encoder.encode_batch"]
                                    if calls["encoder.encode_batch"] else 0.0)

    m["sampler.make_batch_self_ms"] = ms["sampler.make_batch"]
    m["sampler.make_batch_calls"] = calls["sampler.make_batch"]
    m["sampler.sample_triplet_ms"] = ms["sampler.sample_triplet"]
    m["sampler.sample_triplet_calls"] = calls["sampler.sample_triplet"]
    m["augment.ap_dropout_ms"] = ms["augment.ap_dropout"]
    m["augment.ap_dropout_calls"] = calls["augment.ap_dropout"]
    m["preprocess.to_image_ms"] = ms["preprocess.to_image"]
    m["preprocess.to_image_calls"] = calls["preprocess.to_image"]
    trainings = calls["localizer.train"]
    m["preprocess.images_per_fingerprint"] = (count["preprocess.to_image.in_train"] / (trainings * n_train_fps)
                                              if trainings and n_train_fps else 0.0)
    m["data.by_rp_ms"] = ms["data.by_rp"]
    m["data.by_rp_calls_per_triplet"] = (count["data.by_rp.in_train"] / (trainings * n_triplets)
                                         if trainings and n_triplets else 0.0)
    m["data.load_dataset_ms"] = ms["data.load_dataset"]
    m["data.split_ms"] = ms["data.split"]

    m["localizer.train_self_ms"] = ms["localizer.train"]
    m["localizer.index_encode_ms"] = count["index_encode_total_ms"]
    m["localizer.predict_self_ms"] = ms["localizer.predict"]
    m["localizer.predict_calls"] = calls["localizer.predict"]
    m["localizer.baseline_predict_self_ms"] = ms["localizer.baseline_predict"]
    m["localizer.baseline_predict_calls"] = calls["localizer.baseline_predict"]
    m["evaluate.harness_self_ms"] = ms["evaluate.harness"]

    m["model_io.load_ms"] = ms["model_io.load"]
    m["model_io.load_calls"] = calls["model_io.load"]
    m["model_io.save_ms"] = ms["model_io.save"]
    m["model_io.save_calls"] = calls["model_io.save"]
    m["model_io.model_bytes"] = count["model_bytes"]
    m["simulate.generate_ms"] = ms["simulate.generate"]

    for mod in MODULES:
        m[f"{mod}.failed"] = failed[mod]

    m["bench.unit_wall_ms"] = wall * 1e3
    m["bench.unaccounted_frac"] = root_self / wall if wall > 0 else 0.0
    return m
