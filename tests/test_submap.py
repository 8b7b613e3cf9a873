import tracemalloc
import warnings

import numpy as np
import pytest

from vista_align import submap
from vista_align.core import Hyperparameters, InputError, ObjectMap
from vista_align.submap import generate_submaps, mahalanobis_filter

from conftest import generate_submaps_per_cell, map_from_points


def test_mahalanobis_omega_100_keeps_all():
    rng = np.random.default_rng(0)
    m = map_from_points(rng.normal(size=(50, 3)))
    assert len(mahalanobis_filter(m, 100.0)) == 50


def test_mahalanobis_removes_gross_outlier():
    rng = np.random.default_rng(1)
    pts = list(rng.normal(scale=1.0, size=(100, 3)))
    pts.append(np.array([50.0, 50.0, 50.0]))
    filtered = mahalanobis_filter(map_from_points(pts), 95.0)
    assert 100 not in filtered.ids


def test_mahalanobis_filter_does_not_recheck_the_kept_covariances(monkeypatch):
    rng = np.random.default_rng(3)
    m = map_from_points(rng.normal(size=(144, 3)))      # ids 0..143
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args: calls.append(1) or eigvalsh(*args))
    got = mahalanobis_filter(m, 95.0)
    assert not calls and 0 < len(got) < len(m)
    kept = list(got.ids)
    want = ObjectMap(m.agent_id, kept, m.positions[kept], m.covariances[kept])
    assert got.ids == want.ids and got.agent_id == want.agent_id
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.covariances.tobytes() == want.covariances.tobytes()


def test_mahalanobis_95th_percentile_keeps_95_of_100():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(100, 3))
    filtered = mahalanobis_filter(map_from_points(pts), 95.0)
    # distances are distinct almost surely; linear-interpolation percentile
    # lands between the 95th and 96th order statistic
    assert len(filtered) == 95


def test_mahalanobis_accounts_for_anisotropy():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 3)) * np.array([10.0, 1.0, 1.0])
    # a point far in y but close in x: Euclidean-small, Mahalanobis-large
    pts[0] = [0.0, 8.0, 0.0]
    filtered = mahalanobis_filter(map_from_points(pts), 95.0)
    assert 0 not in filtered.ids


def test_mahalanobis_singular_covariance_falls_back():
    pts = [np.array([float(i), 0.0, 0.0]) for i in range(10)]  # collinear
    with pytest.warns(UserWarning, match="singular"):
        filtered = mahalanobis_filter(map_from_points(pts), 100.0)
    assert len(filtered) == 10


@pytest.mark.parametrize("far", [1e308, -1e308, 1e200])
def test_mahalanobis_far_landmark_is_an_input_error_without_warning(far):
    # the covariance overflows: an error naming the field, with no
    # RuntimeWarning from the matrix product before it
    pts = np.random.default_rng(4).uniform(0.0, 10.0, size=(20, 3))
    pts[3, 0] = far
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="'position'"):
            mahalanobis_filter(map_from_points(pts), 95.0)


def test_mahalanobis_input_validation():
    # fewer than 2 landmarks hold no covariance: the map passes through
    m = map_from_points([np.zeros(3)])
    assert mahalanobis_filter(m, 95.0) is m
    m2 = map_from_points([np.zeros(3), np.ones(3)])
    with pytest.raises(ValueError):
        mahalanobis_filter(m2, 0.0)


def test_grid_center_count():
    # bounding box 4 x 2 m, step 1 -> 5 x 3 = 15 centers
    pts = [[0.0, 0.0, 0.0], [4.0, 2.0, 0.0]]
    pts += [[x, y, 0.0] for x in (1.0, 2.0, 3.0) for y in (0.5, 1.5)]
    params = Hyperparameters(n_max=50, s_max=1)
    subs = generate_submaps(map_from_points(pts), params)
    centers = {(round(s.center[0], 6), round(s.center[1], 6)) for s in subs}
    assert len(subs) == 15
    assert centers == {(float(x), float(y)) for x in range(5) for y in range(3)}


def test_grid_cap_is_checked_before_allocation():
    # an x extent of 2e308 overflows to inf cells, and a 1e-300 step on a
    # 4 x 2 m box gives about 1e601: both fail before a cell is built
    far = map_from_points([[-1e308, 0.0, 0.0], [1e308, 1.0, 0.0]]
                          + [[0.0, 0.5 * y, 0.0] for y in range(4)])
    box = map_from_points([[0.0, 0.0, 0.0], [4.0, 2.0, 0.0]]
                          + [[x, 1.0, 0.0] for x in (1.0, 2.0, 3.0, 3.5)])
    cases = [(far, Hyperparameters()), (box, Hyperparameters(overlap=1e-300))]
    for obj_map, params in cases:
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="field 'overlap'"):
                generate_submaps(obj_map, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


@pytest.mark.parametrize("n_max", [50, 5])
def test_grid_cap_counts_cells_times_members(monkeypatch, n_max):
    # test_grid_center_count's box: 15 cells of min(n_max, 8) members
    pts = [[0.0, 0.0, 0.0], [4.0, 2.0, 0.0]]
    pts += [[x, y, 0.0] for x in (1.0, 2.0, 3.0) for y in (0.5, 1.5)]
    m, params = map_from_points(pts), Hyperparameters(n_max=n_max, s_max=1)
    members = 15 * min(n_max, 8)
    monkeypatch.setattr(submap, "MAX_GRID_MEMBERS", members)
    assert len(generate_submaps(m, params)) == 15
    monkeypatch.setattr(submap, "MAX_GRID_MEMBERS", members - 1)
    with pytest.raises(InputError, match="cap of %d members" % (members - 1)):
        generate_submaps(m, params)


def test_n_max_selects_nearest():
    rng = np.random.default_rng(4)
    pts = list(rng.uniform(-0.2, 0.2, size=(60, 3)))
    params = Hyperparameters(n_max=50)
    subs = generate_submaps(map_from_points(pts), params)
    assert subs
    for s in subs:
        assert len(s) == 50
        # the excluded 10 must all be farther from the lifted center than
        # every included landmark
        pos = np.array(pts)
        z_mean = pos[:, 2].mean()
        c3 = np.array([s.center[0], s.center[1], z_mean])
        d = np.linalg.norm(pos - c3, axis=1)
        inside = np.array(sorted(s.landmark_ids))
        outside = np.setdiff1d(np.arange(60), inside)
        assert d[inside].max() <= d[outside].min() + 1e-12


def test_small_submaps_dropped():
    # 3 landmarks can never beat the |S| > s_max = 4 gate
    pts = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]
    assert generate_submaps(map_from_points(pts), Hyperparameters()) == []


def test_empty_map_gives_no_submaps():
    assert generate_submaps(map_from_points([]), Hyperparameters()) == []


def test_coverage_every_landmark_in_some_submap():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 6.0, size=(40, 3)) * np.array([1.0, 1.0, 0.2])
    params = Hyperparameters(n_max=50)
    subs = generate_submaps(map_from_points(pts), params)
    covered = set()
    for s in subs:
        covered.update(s.landmark_ids)
    assert covered == set(range(40))


def test_membership_invariant_under_translation():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.0, 5.0, size=(30, 3))
    params = Hyperparameters(n_max=10)
    subs = generate_submaps(map_from_points(pts), params)
    shifted = generate_submaps(map_from_points(pts + np.array([13.0, -7.0, 2.0])),
                               params)
    assert len(subs) == len(shifted)
    assert [s.landmark_ids for s in subs] == [s.landmark_ids for s in shifted]


def test_deterministic_across_input_order():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 4.0, size=(25, 3))
    params = Hyperparameters(n_max=12)
    m1 = map_from_points(pts)
    m2 = ObjectMap("a", m1.ids[::-1], m1.positions[::-1], m1.covariances[::-1])
    s1 = generate_submaps(m1, params)
    s2 = generate_submaps(m2, params)
    assert [s.landmark_ids for s in s1] == [s.landmark_ids for s in s2]


def test_submap_members_sorted_by_id():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 3.0, size=(20, 3))
    for s in generate_submaps(map_from_points(pts), Hyperparameters(n_max=8)):
        assert list(s.landmark_ids) == sorted(s.landmark_ids)
        for lid, p in zip(s.landmark_ids, s.points):
            assert np.allclose(p, pts[lid])


def grid_cases():
    """(map, params) pairs: seeded random maps with shuffled large ids, a
    lattice whose cells sit on landmarks, so distances tie and n_max cuts
    inside a tie, n_max at or above the landmark count, and too few
    landmarks for any cell."""
    rng = np.random.default_rng(21)
    cases = []
    for n, n_max, step in ((20, 5, 0.7), (40, 12, 1.3), (30, 50, 1.0), (60, 30, 0.25)):
        pts = rng.uniform(0.0, 6.0, size=(n, 3)) * np.array([1.0, 1.0, 0.2])
        ids = (10 ** 6 + rng.permutation(n)).tolist()
        cases.append((ObjectMap("a", ids, pts, np.tile(np.eye(3) * 1e-4, (n, 1, 1))),
                      Hyperparameters(n_max=n_max, overlap=step, window=max(step, 2.0))))
    lattice = np.array([[x, y, 0.0] for x in range(5) for y in range(5)], dtype=float)
    ids = rng.permutation(25).tolist()
    cases.append((ObjectMap("a", ids, lattice, np.tile(np.eye(3) * 1e-4, (25, 1, 1))),
                  Hyperparameters(n_max=6, overlap=1.0)))
    cases.append((map_from_points(lattice[:20]), Hyperparameters(n_max=50, overlap=1.0)))
    cases.append((map_from_points(lattice[:4]), Hyperparameters(overlap=1.0)))
    return cases


@pytest.mark.parametrize("batch_rows", [1, 100, submap.BATCH_ROWS])
def test_generate_submaps_equals_the_per_cell_loop(monkeypatch, batch_rows):
    # 1 row puts each cell in a chunk of its own; 100 rows split the grid
    # into chunks of a few cells and a shorter last one
    monkeypatch.setattr(submap, "BATCH_ROWS", batch_rows)
    sizes = set()
    for obj_map, params in grid_cases():
        got = generate_submaps(obj_map, params)
        expected = generate_submaps_per_cell(obj_map, params)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.center.tobytes() == e.center.tobytes()
            assert g.landmark_ids == e.landmark_ids
            assert all(type(i) is int for i in g.landmark_ids)
            assert g.points.tobytes() == e.points.tobytes()
        sizes.add(len(got))
    assert 0 in sizes and max(sizes) > 100
