"""Every driftloc name the benchmark under ``perfbench/`` traces or calls
still resolves, so that removing or renaming one cannot silently drop a
workload's layer numbers or break a workload.  ``perfbench/spans.py`` is
loaded read-only; nothing is patched."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import driftloc
from driftloc.preprocess import normalize_rows, pad_square

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Traced bindings whose code is already gone; the benchmark reports them as
# absent (ROADMAP lists them under the benchmark-mending item).
KNOWN_ABSENT = {
    "driftloc.sampler.to_image",
    "driftloc.localizer.to_image",
    "driftloc.evaluate.baseline_predict_with_index",
}

# Names the workloads, the oracle check and the benchmark's self-test call.
CALLED = [
    "driftloc.to_image", "driftloc.encode_batch", "driftloc.SimConfig",
    "driftloc.EvalReport",
    "driftloc.preprocess.image_from_rssi",
    "driftloc.encoder.init_model", "driftloc.encoder.encode_batch",
    "driftloc.encoder.EncoderConfig",
    "driftloc.localizer._knn_decide", "driftloc.localizer.predict",
    "driftloc.localizer.train", "driftloc.localizer.TrainConfig",
    "driftloc.localizer.Prediction", "driftloc.localizer.make_batch",
    "driftloc.localizer.train_step", "driftloc.localizer.encode_batch",
    "driftloc.evaluate._run_eval", "driftloc.evaluate.predict",
    "driftloc.evaluate.evaluate_over_time",
    "driftloc.evaluate.evaluate_baseline_over_time",
    "driftloc.sampler.sample_triplet", "driftloc.sampler.apply_ap_dropout",
    "driftloc.data.FingerprintDataset", "driftloc.data.load_dataset",
    "driftloc.data.split_by_ci",
    "driftloc.model_io.load_model_full", "driftloc.model_io.save_model",
    "driftloc.simulate.generate", "driftloc.simulate.preset",
    "driftloc.simulate.write_scenario", "driftloc.nn.conv2d_forward",
]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_readonly", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(target: str, attr: str):
    """The object a traced binding patches, as the benchmark looks it up:
    a module attribute, or an attribute defined on a class (``module:Class``)."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    if cls:
        return getattr(owner, cls).__dict__.get(attr)
    return getattr(owner, attr, None)


def _dotted(name: str):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


def test_traced_bindings_resolve():
    spans = _spans()
    bindings = spans.UNIT_BINDINGS + spans.SETUP_BINDINGS
    absent = {f"{target}.{attr}" for target, attr, _, _ in bindings
              if not callable(_binding(target, attr))}
    assert absent <= KNOWN_ABSENT


@pytest.mark.parametrize("name", CALLED)
def test_benchmark_called_name_exists(name):
    assert callable(_dotted(name))


def test_encode_batch_takes_a_list_of_rows():
    # the oracle check embeds single scans as [to_image(fingerprint)]
    model = driftloc.init_model(driftloc.EncoderConfig(conv1_filters=4, conv2_filters=8),
                                4, seed=5)
    fp = driftloc.Fingerprint(0, 0, np.random.default_rng(1).uniform(-100.0, 0.0, 14))
    e = driftloc.encode_batch(model, [driftloc.to_image(fp)])
    assert e.shape == (1, 5)
    rows = pad_square(normalize_rows([fp.rssi]))
    np.testing.assert_array_equal(e, driftloc.encode_batch(model, rows))


def test_dataset_surface_the_workloads_use():
    # office-eval builds one dataset per test CI from a tuple of the split's
    # rows, positionally; uji-predict and the checks read fingerprints[i]
    ds, _ = driftloc.generate(driftloc.SimConfig(width=6.0, height=0.5, rp_spacing=2.0,
                                                 n_aps=5, n_cis=3, fpr=2, seed=3))
    train_set, test_set = driftloc.split_by_ci(ds, 0, 1, seed=4)
    fps = test_set.fingerprints
    assert fps is test_set.fingerprints and len(fps) == len(test_set)
    for i, fp in enumerate(fps):
        assert (fp.rp_id, fp.ci) == (test_set.rp_ids[i], test_set.ci_ids[i])
        np.testing.assert_array_equal(fp.rssi, test_set.rssi[i])
    picked = [i for i, fp in enumerate(fps) if fp.ci == 1]
    part = driftloc.FingerprintDataset(test_set.floorplan, tuple(fps[i] for i in picked))
    assert len(part) == len(picked) == 8
    np.testing.assert_array_equal(part.rssi, test_set.rssi[picked])
    np.testing.assert_array_equal(part.rp_ids, test_set.rp_ids[picked])
    assert part.cis() == (1,)
    assert [f.rp_id for f in train_set.fingerprints] == train_set.rp_ids.tolist()
