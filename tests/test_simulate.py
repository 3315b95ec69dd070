import math

import numpy as np
import pytest

from driftloc.data import load_dataset
from driftloc.simulate import PRESETS, SimConfig, generate, preset, write_scenario


def base_config(**kw):
    defaults = dict(width=10.0, height=0.5, rp_spacing=2.0, n_aps=8,
                    n_cis=4, fpr=3, seed=1)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_reference_distance_gives_tx_power():
    # with zero noise and bias, any RP within the 1 m reference floor of an
    # AP reads exactly tx_power; spacing 1.0 guarantees such pairs exist
    cfg = base_config(shadow_sigma_db=0.0, drift_sigma_db=0.0,
                      tx_power_dbm=-40.0, rp_spacing=1.0)
    ds, gt = generate(cfg)
    pos = ds.floorplan.positions()
    d = np.sqrt(((pos[:, None, :] - gt.ap_positions[None, :, :]) ** 2).sum(axis=2))
    assert np.argwhere(d <= 1.0).size > 0
    rows = {rp.rp_id: i for i, rp in enumerate(ds.floorplan.rps)}
    for fp in ds.fingerprints:
        r = rows[fp.rp_id]
        for a in range(cfg.n_aps):
            if d[r, a] <= 1.0:
                assert fp.rssi[a] == -40.0


def test_rssi_integer_and_in_range():
    ds, _ = generate(base_config())
    for fp in ds.fingerprints:
        assert np.all(fp.rssi == np.rint(fp.rssi))
        assert fp.rssi.min() >= -100.0 and fp.rssi.max() <= 0.0


def test_rssi_monotone_in_distance_noise_free():
    cfg = base_config(shadow_sigma_db=0.0, drift_sigma_db=0.0, width=30.0,
                      rp_spacing=1.0, n_aps=5)
    ds, gt = generate(cfg)
    pos = ds.floorplan.positions()
    d = np.sqrt(((pos[:, None, :] - gt.ap_positions[None, :, :]) ** 2).sum(axis=2))
    rows = {rp.rp_id: i for i, rp in enumerate(ds.floorplan.rps)}
    for a in range(cfg.n_aps):
        readings = [(d[rows[fp.rp_id], a], fp.rssi[a]) for fp in ds.fingerprints
                    if fp.ci == 0]
        readings.sort()
        values = [v for _, v in readings]
        assert all(x >= y for x, y in zip(values, values[1:]))


def silenced_at(ds, ci):
    """APs that read -100 in every scan of one CI."""
    return set(np.flatnonzero((ds.rssi[ds.ci_ids == ci] == -100.0).all(axis=0)).tolist())


def test_exact_removal_count():
    cfg = SimConfig(width=48.0, height=0.5, rp_spacing=1.0, n_aps=50,
                    n_cis=16, fpr=2, removal_schedule={11: 0.2}, seed=3)
    ds, gt = generate(cfg)
    assert gt.removed_at_ci.dtype == np.int64 and gt.removed_at_ci.shape == (50,)
    assert sorted(set(gt.removed_at_ci.tolist())) == [-1, 11]
    removed = set(np.flatnonzero(gt.removed_at_ci == 11).tolist())
    assert len(removed) == 10
    for ci in range(16):
        assert silenced_at(ds, ci) == (removed if ci >= 11 else set())


def test_removal_cumulative_and_monotone():
    cfg = base_config(n_cis=6, removal_schedule={2: 0.25, 4: 0.5})
    ds, gt = generate(cfg)
    at = gt.removed_at_ci
    # 0.25 * 8 = 2 APs from CI 2, then 2 more (0.5 * 8 = 4 in all) from CI 4
    assert sorted(at.tolist()) == [-1] * 4 + [2] * 2 + [4] * 2
    for ci in range(6):
        assert silenced_at(ds, ci) == set(np.flatnonzero((at >= 0) & (at <= ci)).tolist())
    for ci in range(5):
        assert silenced_at(ds, ci) <= silenced_at(ds, ci + 1)


def test_rows_in_ci_rp_scan_order():
    # noise-free: the fpr scans of one RP in one CI are equal, and each row
    # is its RP's path loss plus its CI's bias, rounded
    cfg = base_config(shadow_sigma_db=0.0, drift_sigma_db=2.0, hourly_sigma_db=1.0,
                      removal_schedule={2: 0.25})
    ds, gt = generate(cfg)
    n_rps = len(ds.floorplan.rps)
    rp_order = np.array([rp.rp_id for rp in ds.floorplan.rps])
    np.testing.assert_array_equal(ds.ci_ids, np.repeat(np.arange(4), n_rps * 3))
    np.testing.assert_array_equal(ds.rp_ids, np.tile(np.repeat(rp_order, 3), 4))
    pos = ds.floorplan.positions()
    d = np.sqrt(((pos[:, None, :] - gt.ap_positions[None, :, :]) ** 2).sum(axis=2))
    base = cfg.tx_power_dbm - 10.0 * cfg.path_loss_exponent * np.log10(np.maximum(d, 1.0))
    for i, (rp, ci) in enumerate(zip(ds.rp_ids, ds.ci_ids)):
        want = np.rint(np.clip(base[rp] + gt.biases[ci], -100.0, 0.0))
        want[(gt.removed_at_ci >= 0) & (gt.removed_at_ci <= ci)] = -100.0
        np.testing.assert_array_equal(ds.rssi[i], want)
    assert ds.fingerprints is ds.fingerprints  # the row view is built once
    assert [(f.rp_id, f.ci) for f in ds.fingerprints] == list(zip(ds.rp_ids.tolist(),
                                                                   ds.ci_ids.tolist()))


def test_bias_structure():
    # walk-only: first CI unbiased, later CIs accumulate steps
    _, gt = generate(base_config(drift_sigma_db=2.0, hourly_sigma_db=0.0))
    assert np.all(gt.biases[0] == 0.0)
    assert np.any(gt.biases[1] != 0.0)
    # spread grows over CIs for a walk (statistically; check variance trend)
    assert gt.biases[3].std() > gt.biases[1].std() * 0.5
    # transient-only: later CIs biased, no systematic growth required
    _, gt2 = generate(base_config(drift_sigma_db=0.0, hourly_sigma_db=3.0))
    assert np.all(gt2.biases[0] == 0.0)
    assert np.any(gt2.biases[1] != 0.0)
    # no bias sources: all zero
    _, gt3 = generate(base_config(drift_sigma_db=0.0, hourly_sigma_db=0.0))
    assert np.all(gt3.biases == 0.0)


def test_same_seed_identical_output():
    a, ga = generate(base_config(removal_schedule={2: 0.5}))
    b, gb = generate(base_config(removal_schedule={2: 0.5}))
    assert len(a) == len(b)
    for col in ("rssi", "rp_ids", "ci_ids"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
    np.testing.assert_array_equal(ga.removed_at_ci, gb.removed_at_ci)


def test_round_trips_through_csv(tmp_path):
    ds, gt = generate(base_config())
    paths = write_scenario(ds, gt, tmp_path)
    again = load_dataset(paths["floorplan"], paths["fingerprints"])
    assert len(again) == len(ds)
    assert again.floorplan.ap_registry == ds.floorplan.ap_registry
    for fa, fb in zip(again.fingerprints, ds.fingerprints):
        np.testing.assert_array_equal(fa.rssi, fb.rssi)
    header = paths["ground_truth"].read_text().splitlines()[0]
    assert header == "ap_id,x_m,y_m,removed_at_ci"


def test_ground_truth_csv_holds_removed_at_ci(tmp_path):
    ds, gt = generate(base_config(n_cis=6, removal_schedule={2: 0.25, 4: 0.5}))
    paths = write_scenario(ds, gt, tmp_path)
    rows = [line.split(",") for line in paths["ground_truth"].read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == list(ds.floorplan.ap_registry)
    assert [int(r[3]) for r in rows] == gt.removed_at_ci.tolist()
    np.testing.assert_array_equal([[float(r[1]), float(r[2])] for r in rows], gt.ap_positions)


def test_presets():
    office = preset("office-like")
    assert office.n_cis == 16
    assert office.fpr == 6
    assert office.removal_schedule[11] == 0.20
    assert office.width == 48.0 and office.rp_spacing == 1.0
    uji = preset("uji-like")
    assert uji.removal_schedule[11] == 0.5
    assert uji.n_cis == 15
    assert uji.fpr == 9
    with pytest.raises(ValueError, match="unknown preset"):
        preset("mall-like")


def test_preset_table_cannot_be_changed_through_its_readers():
    # PRESETS is public, so neither the table nor a schedule in it may
    # change under a caller; preset() hands out a schedule of its own
    with pytest.raises(TypeError):
        PRESETS["mall-like"] = preset("office-like")
    with pytest.raises(TypeError):
        PRESETS["office-like"].removal_schedule[3] = 0.5
    mine = preset("office-like")
    mine.removal_schedule[3] = 0.5
    assert dict(PRESETS["office-like"].removal_schedule) == {11: 0.20}
    assert preset("office-like").removal_schedule == {11: 0.20}


def test_office_preset_is_a_48m_single_row_path():
    ds, _ = generate(preset("office-like"))
    pos = ds.floorplan.positions()
    assert len(ds.floorplan.rps) == 49
    assert set(pos[:, 1]) == {0.0}
    assert pos[:, 0].min() == 0.0 and pos[:, 0].max() == 48.0


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(width=-1.0)
    with pytest.raises(ValueError):
        base_config(path_loss_exponent=1.0)
    with pytest.raises(ValueError):
        base_config(removal_schedule={2: 0.5, 3: 0.25})  # decreasing
    with pytest.raises(ValueError):
        base_config(removal_schedule={99: 0.5})  # beyond the timeline
    with pytest.raises(ValueError):
        base_config(removal_schedule={1: 1.5})
    with pytest.raises(ValueError, match="at least 2"):
        generate(base_config(width=0.5, height=0.5, rp_spacing=5.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["width", "height", "rp_spacing", "tx_power_dbm",
                                   "path_loss_exponent", "shadow_sigma_db",
                                   "drift_sigma_db", "hourly_sigma_db"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        base_config(**{field: value})


def test_config_rejects_grid_too_large_to_count():
    for kw in (dict(width=1e308, rp_spacing=1e-308), dict(height=1e300, rp_spacing=1e-10),
               dict(width=2.0**16, height=2.0**15, rp_spacing=1.0)):
        with pytest.raises(ValueError, match=r"rp_spacing .* RPs; need .* at most 2\*\*31"):
            base_config(**kw)
    # the largest grid whose rp_ids fit in int32 is accepted (and not built)
    base_config(width=2.0**16 - 1, height=2.0**15 - 1, rp_spacing=1.0)
