import functools
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from vista_align import alignment, evaluation, formats
from vista_align.alignment import (AlignmentHypothesis, align_maps, arun,
                                   prune, solve_submap_pair)
from vista_align.association import Association, build_affinity
from vista_align.core import (DegenerateGeometryError, Hyperparameters,
                              RigidTransform, rotation_z)
from vista_align.evaluation import (PairOutcome, classify, default_voxel,
                                    evaluate_map_pair, submap_iou)
from vista_align.simulation import perturb_frame
from vista_align.submap import Submap, generate_submaps

from conftest import (clique_number, grid_hypotheses,
                      hypotheses_to_json_per_grid_pair, identity,
                      map_from_points, random_rotation, rotation_x)


def hyp(transform, n_inliers, src=0, tgt=0):
    inliers = frozenset(Association(i, i) for i in range(n_inliers))
    return AlignmentHypothesis(transform, inliers, n_inliers, src, tgt)


def test_arun_identity():
    pts = np.random.default_rng(0).uniform(size=(6, 3))
    t = arun(pts, pts)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(t.translation, 0.0, atol=1e-12)


def test_arun_construct_and_recover():
    rng = np.random.default_rng(1)
    pa = rng.uniform(-5.0, 5.0, size=(5, 3))
    truth = RigidTransform(rotation_z(30.0), np.array([1.0, 2.0, 0.0]))
    t = arun(pa, truth.apply(pa))
    assert np.allclose(t.rotation, truth.rotation, atol=1e-9)
    assert np.allclose(t.translation, truth.translation, atol=1e-9)


def test_arun_collinear_degenerate():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        arun(pts, pts + 1.0)


def test_arun_planar_points_no_reflection():
    # coplanar correspondences exercise the det-correction branch
    rng = np.random.default_rng(2)
    pa = rng.uniform(-3.0, 3.0, size=(8, 3))
    pa[:, 2] = 0.0
    truth = RigidTransform(rotation_x(150.0) @ rotation_z(75.0),
                           np.array([-4.0, 2.0, 1.0]))
    t = arun(pa, truth.apply(pa))
    assert np.isclose(np.linalg.det(t.rotation), 1.0, atol=1e-9)
    assert np.allclose(t.rotation, truth.rotation, atol=1e-9)
    assert np.allclose(t.translation, truth.translation, atol=1e-9)


def test_arun_left_invariance():
    rng = np.random.default_rng(3)
    pa = rng.uniform(size=(7, 3))
    pb = rng.uniform(size=(7, 3))
    Rp = random_rotation(rng)
    t1 = arun(pa, pb)
    t2 = arun(pa @ Rp.T, pb @ Rp.T)
    cost1 = np.linalg.norm(t1.apply(pa) - pb)
    cost2 = np.linalg.norm(t2.apply(pa @ Rp.T) - pb @ Rp.T)
    assert abs(cost1 - cost2) < 1e-9


def test_arun_input_validation():
    with pytest.raises(ValueError):
        arun(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        arun(np.zeros((4, 3)), np.zeros((5, 3)))


def test_prune_attitude():
    t = RigidTransform(rotation_x(12.0), np.zeros(3))
    assert prune(hyp(t, 10), Hyperparameters()) == "attitude"


def test_prune_cardinality_strict():
    assert prune(hyp(identity(), 4), Hyperparameters()) == \
        "cardinality"
    assert prune(hyp(identity(), 5), Hyperparameters()) is None


def test_prune_yaw_not_gated():
    t = RigidTransform(rotation_z(25.0), np.zeros(3))
    assert prune(hyp(t, 5), Hyperparameters()) is None


def test_prune_monotone_in_cardinality():
    t = RigidTransform(rotation_z(10.0), np.zeros(3))
    params = Hyperparameters()
    if prune(hyp(t, 5), params) is None:
        assert prune(hyp(t, 6), params) is None


def test_hypothesis_cardinality_checked():
    with pytest.raises(ValueError):
        AlignmentHypothesis(identity(),
                            frozenset([Association(0, 0)]), 2, 0, 0)


def test_solve_submap_pair_recovers_transform():
    rng = np.random.default_rng(4)
    pa = rng.uniform(0.0, 4.0, size=(10, 3))
    truth = RigidTransform(rotation_z(55.0), np.array([3.0, -2.0, 0.5]))
    sa = Submap([0.0, 0.0], range(10), pa)
    sb = Submap([0.0, 0.0], range(10), truth.apply(pa))
    res = solve_submap_pair(sa, sb, Hyperparameters())
    assert res is not None
    transform, inliers = res
    assert np.allclose(transform.rotation, truth.rotation, atol=1e-6)
    assert np.allclose(transform.translation, truth.translation, atol=1e-6)
    assert inliers == frozenset(Association(i, i) for i in range(10))


def test_solve_submap_pair_no_structure_returns_none():
    # a single shared point cannot support a transform
    sa = Submap([0.0, 0.0], [0], [[0.0, 0.0, 0.0]])
    sb = Submap([0.0, 0.0], [0], [[5.0, 5.0, 5.0]])
    assert solve_submap_pair(sa, sb, Hyperparameters()) is None


def test_align_maps_identical_maps():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 5.0, size=(20, 3)) * np.array([1.0, 1.0, 0.3])
    m = map_from_points(pts)
    hyps = grid_hypotheses(align_maps(m, m, Hyperparameters()))
    assert hyps
    top = hyps[0]
    assert top.cardinality == 20
    assert np.allclose(top.transform.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(top.transform.translation, 0.0, atol=1e-9)


def test_align_maps_translated_map():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.0, 5.0, size=(15, 3)) * np.array([1.0, 1.0, 0.3])
    shift = np.array([0.3, 0.3, 0.0])
    hyps = grid_hypotheses(align_maps(map_from_points(pts),
                                      map_from_points(pts + shift),
                                      Hyperparameters()))
    assert hyps
    assert np.allclose(hyps[0].transform.translation, shift, atol=1e-9)
    assert hyps[0].cardinality > Hyperparameters().s_max


def test_align_maps_direction_convention():
    # hypotheses map map-a coordinates into map-b coordinates
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 5.0, size=(12, 3)) * np.array([1.0, 1.0, 0.2])
    truth = RigidTransform(rotation_z(70.0), np.array([4.0, 1.0, 0.0]))
    hyps = grid_hypotheses(align_maps(map_from_points(pts),
                                      map_from_points(truth.apply(pts)),
                                      Hyperparameters()))
    t = hyps[0].transform
    assert np.allclose(t.apply(pts), truth.apply(pts), atol=1e-6)


def test_align_maps_forward_backward_inverse():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 4.0, size=(10, 3)) * np.array([1.0, 1.0, 0.2])
    truth = RigidTransform(rotation_z(-35.0), np.array([1.0, 0.5, 0.0]))
    ma, mb = map_from_points(pts), map_from_points(truth.apply(pts))
    fwd = grid_hypotheses(align_maps(ma, mb, Hyperparameters()))
    bwd = grid_hypotheses(align_maps(mb, ma, Hyperparameters()))
    r = fwd[0].transform.compose(bwd[0].transform)
    assert np.allclose(r.rotation, np.eye(3), atol=1e-6)
    assert np.allclose(r.translation, 0.0, atol=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_align_maps_moving_map_b_moves_every_hypothesis(seed):
    # 15 points and the default n_max = 50: every grid cell holds the whole
    # map, so each grid has one distinct solve whatever its bounding box
    rng = np.random.default_rng(seed)
    scale = np.array([1.0, 1.0, 0.3])
    pts_a = rng.uniform(0.0, 5.0, size=(15, 3)) * scale
    shared = pts_a[rng.permutation(15)[:11]] + rng.normal(0.0, 0.01, size=(11, 3))
    pts_b = np.vstack([shared, rng.uniform(0.0, 5.0, size=(4, 3)) * scale])
    map_a, map_b = map_from_points(pts_a), map_from_points(pts_b)
    moved, truth = perturb_frame(map_b, rng.uniform(-60.0, 60.0),
                                 rng.uniform(-5.0, 5.0, size=3))

    def solves(b):
        return {(h.cardinality, h.inliers): h.transform
                for _, _, h in align_maps(map_a, b, Hyperparameters())}

    before, after = solves(map_b), solves(moved)
    assert before and set(after) == set(before)
    for key, t in before.items():
        expected = truth.compose(t)
        assert np.allclose(after[key].rotation, expected.rotation, rtol=0, atol=1e-9)
        assert np.allclose(after[key].translation, expected.translation,
                           rtol=0, atol=1e-9)


def test_align_maps_sorted_by_cardinality(tmp_path):
    # the file lists every grid pair of every kept solve once, largest
    # cardinality first, then by source and target cell
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 6.0, size=(25, 3)) * np.array([1.0, 1.0, 0.2])
    solves = align_maps(map_from_points(pts), map_from_points(pts),
                        Hyperparameters(n_max=10))
    path = str(tmp_path / "hyps.json")
    assert formats.save_hypotheses(path, solves) == sum(
        len(cells_a) * len(cells_b) for cells_a, cells_b, _ in solves)
    with open(path) as fh:
        keys = [(-r["cardinality"], r["source_submap"], r["target_submap"])
                for r in json.load(fh)]
    assert len({c for c, _, _ in keys}) > 1
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert sorted(keys) == sorted((-h.cardinality, ia, ib)
                                  for cells_a, cells_b, h in solves
                                  for ia in cells_a for ib in cells_b)


def test_align_maps_rejects_empty_maps():
    with pytest.raises(ValueError):
        align_maps(map_from_points([]), map_from_points([], agent_id="b"),
                   Hyperparameters())


SHIFT = np.array([0.3, -0.2, 0.0])      # map B is map A moved by SHIFT


@functools.lru_cache(maxsize=None)
def engine_case(n_points, n_max):
    """Maps A and B, their parameters, and every grid pair solved on its own,
    with no dedupe: [(ia, sa, ib, sb, solve_submap_pair result)]."""
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.0, 4.0, size=(n_points, 3)) * np.array([1.0, 1.0, 0.2])
    ma, mb = map_from_points(pts), map_from_points(pts + SHIFT)
    params = Hyperparameters(n_max=n_max)
    grid = [(ia, sa, ib, sb, solve_submap_pair(sa, sb, params))
            for ia, sa in enumerate(generate_submaps(ma, params))
            for ib, sb in enumerate(generate_submaps(mb, params))]
    return ma, mb, params, grid


# one submap content per map, and several contents per map
ENGINE_CASES = [(12, 50), (14, 6)]


def written(tmp_path, solves, top_k=None):
    path = str(tmp_path / "hyps.json")
    formats.save_hypotheses(path, solves, top_k)
    with open(path) as fh:
        return fh.read()


@pytest.mark.parametrize("n_points, n_max", ENGINE_CASES)
def test_engine_solves_each_distinct_pair_once(n_points, n_max, monkeypatch,
                                               tmp_path):
    # the file equals the one written from every grid pair solved on its own
    ma, mb, params, grid = engine_case(n_points, n_max)
    expected = []
    for ia, sa, ib, sb, res in grid:
        if res is not None:
            h = AlignmentHypothesis(res[0], res[1], len(res[1]), ia, ib)
            if prune(h, params) is None:
                expected.append(((ia,), (ib,), h))

    calls = []

    def counting(sa, sb, p, need=0):
        calls.append((sa.landmark_ids, sb.landmark_ids))
        return solve_submap_pair(sa, sb, p, need)

    monkeypatch.setattr(alignment, "solve_submap_pair", counting)
    solves = align_maps(ma, mb, params)
    assert sorted(calls) == sorted({(sa.landmark_ids, sb.landmark_ids)
                                    for _, sa, _, sb, _ in grid})
    assert len(calls) < len(grid)
    assert len(solves) < len(expected)
    for top_k in (None, 1, 7, len(expected) + 1):
        assert (written(tmp_path, solves, top_k)
                == hypotheses_to_json_per_grid_pair(expected, top_k)
                == hypotheses_to_json_per_grid_pair(solves, top_k))


@pytest.mark.parametrize("n_points, n_max", ENGINE_CASES)
def test_evaluate_map_pair_equals_per_grid_loop(n_points, n_max):
    ma, mb, params, grid = engine_case(n_points, n_max)
    truth = RigidTransform(np.eye(3), SHIFT)
    voxel = default_voxel(params)
    expected = Counter()
    for ia, sa, ib, sb, res in grid:
        cardinality, attitude_ok, correct = 0, False, False
        if res is not None:
            h = AlignmentHypothesis(res[0], res[1], len(res[1]), ia, ib)
            cardinality = h.cardinality
            attitude_ok = prune(h, params) != "attitude"
            correct = classify(h, truth, params)
        moved = Submap(sb.center, sb.landmark_ids, truth.inverse().apply(sb.points))
        expected[PairOutcome(submap_iou(sa, moved, voxel), cardinality,
                             attitude_ok, correct)] += 1
    assert any(o.correct for o in expected)
    outcomes = evaluate_map_pair(ma, mb, truth, params)[0]
    assert Counter(replace(o, pairs=1) for o in outcomes
                   for _ in range(o.pairs)) == expected
    # one outcome per distinct pair of submap contents
    assert len(outcomes) == len({(sa.landmark_ids, sb.landmark_ids)
                                 for _, sa, _, sb, _ in grid}) < len(grid)


@pytest.mark.parametrize("n_points, n_max", ENGINE_CASES)
def test_prune_runs_once_per_distinct_solved_pair(n_points, n_max, monkeypatch):
    ma, mb, params, grid = engine_case(n_points, n_max)
    pruned = {(12, 50): 1, (14, 6): 30}[n_points, n_max]
    solved = [(sa.landmark_ids, sb.landmark_ids)
              for _, sa, _, sb, res in grid if res is not None]
    assert len(set(solved)) < len(solved)
    # align_maps does not solve a pair whose graph has no (s_max + 1)-clique
    no_clique = {(sa.landmark_ids, sb.landmark_ids) for _, sa, _, sb, _ in grid
                 if clique_number(build_affinity(sa, sb, params)[1]) <= params.s_max}
    assert len(set(solved) - no_clique) == pruned
    calls = []

    def counting(h, p):
        calls.append(h)
        return prune(h, p)

    monkeypatch.setattr(alignment, "prune", counting)
    monkeypatch.setattr(evaluation, "prune", counting)
    align_maps(ma, mb, params)
    assert len(calls) == pruned
    calls.clear()
    evaluate_map_pair(ma, mb, RigidTransform(np.eye(3), SHIFT), params)
    assert len(calls) == len(set(solved))


def test_align_maps_skip_keeps_every_byte(monkeypatch, tmp_path):
    # several submap contents per map: 114 of the 144 distinct pairs hold no
    # clique of s_max + 1 candidates, 88 of them pairs that yield a transform
    ma, mb, params, _ = engine_case(14, 6)
    exact = alignment.has_clique
    verdicts = []

    def recording(affinity, k):
        verdicts.append(exact(affinity, k))
        return verdicts[-1]

    monkeypatch.setattr(alignment, "has_clique", recording)
    skipping = align_maps(ma, mb, params)
    assert len(verdicts) == 144 and verdicts.count(False) == 114
    monkeypatch.setattr(alignment, "has_clique", lambda affinity, k: True)
    solving = align_maps(ma, mb, params)
    assert skipping and [h.inliers for _, _, h in skipping] == [
        h.inliers for _, _, h in solving]
    for top_k in (None, 5):
        assert (written(tmp_path, skipping, top_k)
                == written(tmp_path, solving, top_k)
                == hypotheses_to_json_per_grid_pair(solving, top_k))
