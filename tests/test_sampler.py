import math

import numpy as np
import pytest
from scipy import stats

from driftloc.data import (Fingerprint, FingerprintDataset, FloorPlan,
                           ReferencePoint)
from driftloc.preprocess import normalize_rows
from driftloc.sampler import (build_pmf_table, default_sigma_sel, make_batch,
                              rp_members, sample_triplet)


def grid_floorplan(n=5, spacing=1.0, n_aps=4):
    rps = tuple(ReferencePoint(r * n + c, c * spacing, r * spacing)
                for r in range(n) for c in range(n))
    return FloorPlan(rps=rps, ap_registry=tuple(f"a{i}" for i in range(n_aps)))


def line_floorplan(coords, n_aps=4):
    rps = tuple(ReferencePoint(i, x, y) for i, (x, y) in enumerate(coords))
    return FloorPlan(rps=rps, ap_registry=tuple(f"a{i}" for i in range(n_aps)))


def dataset_on(fp, fpr=2, seed=0):
    rng = np.random.default_rng(seed)
    fps = []
    for rp in fp.rps:
        for _ in range(fpr):
            fps.append(Fingerprint(rp.rp_id, 0,
                                   rng.integers(-95, -30, fp.n_aps).astype(float)))
    return FingerprintDataset(fp, tuple(fps))


def arrays_of(ds, sigma_sel):
    """The training arrays train() builds: normalized rows, members, pmf."""
    return normalize_rows(ds.rssi), rp_members(ds), build_pmf_table(ds.floorplan, sigma_sel)


def rp_of(ds):
    return np.array([f.rp_id for f in ds.fingerprints])


# grid and line floorplans number their RPs 0..n-1 in floorplan order, so an
# rp_id is also its row and its column in a pmf table

def test_anchor_probability_is_zero():
    fp = grid_floorplan()
    table = build_pmf_table(fp, sigma_sel=2.0)
    for anchor in (0, 12, 24):
        assert table[anchor, anchor] == 0.0


def test_pmf_normalized_and_nonnegative():
    fp = grid_floorplan()
    table = build_pmf_table(fp, sigma_sel=1.5)
    assert np.all(table >= 0.0)
    assert np.all(np.abs(table.sum(axis=1) - 1.0) <= 1e-12)


def test_equidistant_rps_equal_probability():
    # anchor at the grid center: the four axial neighbors are all 1 m away
    fp = grid_floorplan()
    pmf = build_pmf_table(fp, sigma_sel=2.0)[12]
    axial = [pmf[rp] for rp in (7, 11, 13, 17)]
    assert all(p == axial[0] for p in axial)


def test_collinear_kernel_ratio():
    # RPs at 1 m and 2 m from the anchor, sigma 1: the probability ratio is
    # exp(-0.5)/exp(-2) = exp(1.5)
    fp = line_floorplan([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    pmf = build_pmf_table(fp, sigma_sel=1.0)[0]
    ratio = pmf[1] / pmf[2]
    assert ratio == pytest.approx(math.exp(1.5), rel=1e-12)
    assert math.exp(1.5) == pytest.approx(4.4817, abs=5e-5)


def test_pmf_strict_distance_monotonicity():
    fp = grid_floorplan()
    pos = fp.positions()
    for a_idx, pmf in enumerate(build_pmf_table(fp, sigma_sel=2.0)):
        sq = ((pos - pos[a_idx]) ** 2).sum(axis=1)
        for i in range(len(pos)):
            for j in range(len(pos)):
                if i == a_idx or j == a_idx:
                    continue
                if sq[i] < sq[j]:
                    assert pmf[i] > pmf[j]


def test_pmf_translation_invariance():
    base = [(0.0, 0.0), (1.0, 2.0), (3.0, 1.0), (2.0, 4.0)]
    moved = [(x + 17.5, y - 3.25) for x, y in base]
    p1 = build_pmf_table(line_floorplan(base), sigma_sel=1.7)
    p2 = build_pmf_table(line_floorplan(moved), sigma_sel=1.7)
    np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-15)


def test_pmf_validation():
    fp = grid_floorplan()
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="sigma_sel"):
            build_pmf_table(fp, sigma_sel=bad)
    with pytest.raises(ValueError, match="underflowed"):
        build_pmf_table(fp, sigma_sel=1e-3)
    table = build_pmf_table(fp, sigma_sel=1.0)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.5


def test_single_rp_floorplan_impossible():
    # a one-RP floorplan cannot even be constructed, so no pmf exists for it
    with pytest.raises(ValueError, match="at least 2"):
        FloorPlan(rps=(ReferencePoint(0, 0, 0),), ap_registry=("a",))


def test_default_sigma_sel_scales_with_floorplan():
    fp = grid_floorplan(spacing=1.0)
    assert default_sigma_sel(fp) == pytest.approx(0.1 * math.hypot(4, 4))
    fp10 = grid_floorplan(spacing=10.0)
    assert default_sigma_sel(fp10) == pytest.approx(10 * default_sigma_sel(fp))


def test_triplet_requires_distinct_rps():
    # the negative RP is drawn from the anchor's pmf row, whose own entry is 0
    fp = grid_floorplan()
    table = build_pmf_table(fp, sigma_sel=2.0)
    assert table.shape == (25, 25)
    assert np.all(np.diag(table) == 0.0)
    # row a, anchor by anchor: the normalized Gaussian kernel of each RP's
    # distance from RP a (2 * sigma_sel**2 = 8), same arithmetic
    pos = fp.positions()
    for a in range(len(fp.rps)):
        w = np.exp(-((pos - pos[a]) ** 2).sum(axis=1) / 8.0)
        w[a] = 0.0
        np.testing.assert_array_equal(table[a], w / w.sum())


def test_sample_triplet_forced_choices():
    # 2 RPs x 1 fingerprint: positive falls back to the anchor fingerprint
    # and the negative is always the other RP
    fp = line_floorplan([(0.0, 0.0), (4.0, 0.0)])
    ds = dataset_on(fp, fpr=1)
    _, members, pmf = arrays_of(ds, 1.0)
    rps = rp_of(ds)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, p, n = sample_triplet(members, pmf, rng)
        assert a == p
        assert rps[n] != rps[a]


def test_sample_triplet_negative_never_anchor():
    fp = grid_floorplan()
    ds = dataset_on(fp, fpr=2)
    _, members, pmf = arrays_of(ds, 2.0)
    rps = rp_of(ds)
    rng = np.random.default_rng(1)
    for _ in range(500):
        a, p, n = sample_triplet(members, pmf, rng)
        assert a != p and rps[a] == rps[p]
        assert rps[n] != rps[a]


def test_negative_draws_match_pmf_chisquare():
    # 5x5 grid, sigma 2 m, 1e4 draws from one anchor
    fp = grid_floorplan(n=5, spacing=1.0)
    ds = dataset_on(fp, fpr=1)
    sigma = 2.0
    pmfs = build_pmf_table(fp, sigma_sel=sigma)
    anchor = 12
    pmf = pmfs[anchor]
    rp_ids = [rp.rp_id for rp in fp.rps]
    rng = np.random.default_rng(2)
    n_draws = 10_000
    counts = {rp: 0 for rp in rp_ids}
    for _ in range(n_draws):
        neg = rp_ids[int(rng.choice(len(rp_ids), p=pmf))]
        counts[neg] += 1
    assert counts[anchor] == 0
    observed = np.array([counts[rp] for rp in rp_ids if rp != anchor])
    expected = np.array([pmf[rp] * n_draws for rp in rp_ids if rp != anchor])
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_triplet_space_fully_reachable():
    # 2 RPs x 2 fingerprints: every legal (anchor, positive, negative)
    # fingerprint combination appears within a modest number of draws
    fp = line_floorplan([(0.0, 0.0), (3.0, 0.0)])
    rng0 = np.random.default_rng(10)
    fps = []
    for rp in (0, 1):
        for _ in range(2):
            fps.append(Fingerprint(rp, 0, rng0.integers(-95, -30, 4).astype(float)))
    ds = FingerprintDataset(fp, tuple(fps))
    _, members, pmf = arrays_of(ds, 1.0)
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(500):
        seen.add(sample_triplet(members, pmf, rng))
    # anchors: 4 choices; positive: forced distinct partner; negative: 2
    assert len(seen) == 8


def test_make_batch_count_and_determinism():
    fp = grid_floorplan()
    ds = dataset_on(fp, fpr=2)
    arrays = arrays_of(ds, None)
    i1, b1 = make_batch(*arrays, 32, 0.9, np.random.default_rng(4))
    i2, b2 = make_batch(*arrays, 32, 0.9, np.random.default_rng(4))
    assert i1.shape == (32, 3) and b1.shape == (3, 32, 4)
    np.testing.assert_array_equal(i1, i2)
    np.testing.assert_array_equal(b1, b2)


def test_make_batch_no_augmentation_is_clean():
    fp = grid_floorplan()
    ds = dataset_on(fp, fpr=2)
    pixels, members, pmf = arrays_of(ds, None)
    idx, rows = make_batch(pixels, members, pmf, 16, 0.0, np.random.default_rng(5))
    np.testing.assert_array_equal(rows, pixels[idx.T])


def test_sample_triplet_empty_training_set():
    fp = grid_floorplan()
    empty = FingerprintDataset(fp, ())
    with pytest.raises(ValueError, match="empty"):
        rp_members(empty)
    # an RP without fingerprints has no anchors or negatives to offer
    partial = FingerprintDataset(fp, dataset_on(fp, fpr=1).fingerprints[1:])
    with pytest.raises(ValueError, match=r"RPs \[0\] have no training"):
        rp_members(partial)


def test_first_batch_draws_are_pinned():
    # Triplets and dropout counts of the first make_batch on a fixed set with
    # a single-fingerprint RP, sigma_sel given and p_upper 0.9; the values
    # were recorded from the per-image sampler this array sampler replaced.
    coords = [(0.0, 0.0), (1.0, 0.0), (2.5, 0.0), (2.5, 1.5)]
    fp = FloorPlan(rps=tuple(ReferencePoint(10 + i, x, y) for i, (x, y) in enumerate(coords)),
                   ap_registry=tuple(f"a{i}" for i in range(7)))
    rng0 = np.random.default_rng(30)
    fps = []
    for rp, count in zip(fp.rps, (3, 1, 2, 2)):
        for _ in range(count):
            rssi = rng0.integers(-100, -30, 7).astype(float)
            rssi[rng0.random(7) < 0.3] = -100.0
            fps.append(Fingerprint(rp.rp_id, 0, rssi))
    pixels, members, pmf = arrays_of(FingerprintDataset(fp, tuple(fps)), 1.5)
    rng = np.random.default_rng(20)
    idx, rows = make_batch(pixels, members, pmf, 8, 0.9, rng)
    assert idx.tolist() == [[6, 7, 3], [1, 2, 5], [5, 4, 7], [5, 4, 6],
                            [5, 4, 7], [4, 5, 2], [6, 7, 4], [3, 3, 1]]
    zeroed = (pixels[idx] > 0).sum(-1) - (rows.swapaxes(0, 1) > 0).sum(-1)
    assert zeroed.reshape(-1).tolist() == [0, 2, 0, 3, 0, 0, 1, 0, 2, 2, 4, 1,
                                           3, 2, 3, 5, 1, 2, 2, 4, 2, 0, 0, 5]
    assert int(rng.integers(2**32)) == 2198256917  # no draw added or lost
