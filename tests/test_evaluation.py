import math
import time

import numpy as np
import pytest

from vista_align import alignment
from vista_align.core import Hyperparameters, RigidTransform, rotation_z
from vista_align.evaluation import (PairOutcome, classify, default_voxel,
                                    evaluate_map_pair, precision_recall,
                                    submap_iou, timing)
from vista_align.submap import Submap, generate_submaps

from conftest import identity, map_from_points, rotation_x


def sub(points):
    pts = np.asarray(points, dtype=float)
    return Submap([0.0, 0.0], list(range(len(pts))), pts)


def test_default_voxel_is_quarter_window():
    assert default_voxel(Hyperparameters()) == 0.5


def test_iou_identical_submaps():
    pts = np.random.default_rng(0).uniform(size=(10, 3))
    assert submap_iou(sub(pts), sub(pts), 0.5) == 1.0


def test_iou_disjoint_submaps():
    pts = np.random.default_rng(1).uniform(size=(8, 3))
    assert submap_iou(sub(pts), sub(pts + 100.0), 0.5) == 0.0


def test_iou_hand_constructed_third():
    # submap A occupies voxels {0..7}, submap B occupies {4..11}:
    # intersection 4 cells, union 12 cells -> 1/3
    a = [[float(i) + 0.5, 0.5, 0.5] for i in range(8)]
    b = [[float(i) + 0.5, 0.5, 0.5] for i in range(4, 12)]
    assert submap_iou(sub(a), sub(b), 1.0) == pytest.approx(1.0 / 3.0)


def test_iou_symmetric():
    rng = np.random.default_rng(2)
    a, b = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 3))
    assert submap_iou(sub(a), sub(b), 0.3) == submap_iou(sub(b), sub(a), 0.3)


def test_iou_empty_submap_is_zero():
    empty = Submap([0.0, 0.0], [], np.zeros((0, 3)))
    assert submap_iou(empty, sub([[0.0, 0.0, 0.0]]), 0.5) == 0.0


def test_iou_validates_voxel():
    for voxel in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            submap_iou(sub([[0.0, 0.0, 0.0]]), sub([[0.0, 0.0, 0.0]]), voxel)


def test_classify_truth_is_correct():
    truth = RigidTransform(rotation_z(40.0), np.array([3.0, 1.0, 0.0]))
    assert classify(truth, truth, Hyperparameters())


def test_classify_translation_gate():
    truth = identity()
    params = Hyperparameters()
    bad = RigidTransform(np.eye(3), np.array([1.6, 0.0, 0.0]))
    ok = RigidTransform(np.eye(3), np.array([1.4, 0.0, 0.0]))
    assert not classify(bad, truth, params)
    assert classify(ok, truth, params)


def test_classify_yaw_gate():
    truth = identity()
    params = Hyperparameters()
    assert not classify(RigidTransform(rotation_z(31.0), np.zeros(3)),
                        truth, params)
    assert classify(RigidTransform(rotation_z(29.0), np.zeros(3)),
                    truth, params)


def test_classify_roll_pitch_gate():
    truth = identity()
    params = Hyperparameters()
    assert not classify(RigidTransform(rotation_x(11.0), np.zeros(3)),
                        truth, params)


def test_precision_recall_all_correct():
    outcomes = [PairOutcome(0.9, 10, True, True) for _ in range(5)]
    rows = precision_recall(outcomes, Hyperparameters(), [4])
    assert rows[0].precision == 1.0 and rows[0].recall == 1.0
    assert rows[0].n_hypothesized == 5 and rows[0].n_overlapping == 5


def test_precision_recall_counting():
    # 10 hypothesized (8 correct); 20 overlapping pairs, 8 recovered correctly
    outcomes = []
    outcomes += [PairOutcome(0.9, 10, True, True) for _ in range(8)]
    outcomes += [PairOutcome(0.1, 10, True, False) for _ in range(2)]
    outcomes += [PairOutcome(0.9, 0, False, False) for _ in range(12)]
    rows = precision_recall(outcomes, Hyperparameters(), [4])
    assert rows[0].precision == pytest.approx(0.8)
    assert rows[0].recall == pytest.approx(0.4)
    assert rows[0].n_hypothesized == 10
    assert rows[0].n_overlapping == 20


def test_precision_recall_cardinality_gate_strict():
    outcomes = [PairOutcome(0.9, 5, True, True)]
    rows = precision_recall(outcomes, Hyperparameters(), [4, 5])
    assert rows[0].n_hypothesized == 1
    assert rows[1].n_hypothesized == 0


def test_precision_recall_undefined_precision_flagged():
    outcomes = [PairOutcome(0.9, 2, True, True)]
    row = precision_recall(outcomes, Hyperparameters(), [10])[0]
    assert row.precision == 1.0 and row.n_hypothesized == 0
    assert row.recall == 0.0


def test_precision_recall_attitude_gate_excludes():
    outcomes = [PairOutcome(0.9, 10, False, True)]
    row = precision_recall(outcomes, Hyperparameters(), [4])[0]
    assert row.n_hypothesized == 0


def test_recall_monotone_in_s_max():
    rng = np.random.default_rng(3)
    outcomes = [PairOutcome(float(rng.uniform()), int(rng.integers(0, 20)),
                            bool(rng.uniform() < 0.8),
                            bool(rng.uniform() < 0.5)) for _ in range(200)]
    rows = precision_recall(outcomes, Hyperparameters(), list(range(0, 15)))
    recalls = [r.recall for r in rows]
    hyped = [r.n_hypothesized for r in rows]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))
    assert all(a >= b for a, b in zip(hyped, hyped[1:]))


def test_evaluate_map_pair_perfect_alignment():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 5.0, size=(20, 3)) * np.array([1.0, 1.0, 0.3])
    truth = RigidTransform(rotation_z(60.0), np.array([5.0, -3.0, 0.0]))
    ma = map_from_points(pts)
    mb = map_from_points(truth.apply(pts))
    params = Hyperparameters()
    outcomes, mean_s, std_s = evaluate_map_pair(ma, mb, truth, params)
    assert outcomes
    assert mean_s > 0.0 and std_s >= 0.0
    rows = precision_recall(outcomes, params, [4])
    assert rows[0].precision == 1.0
    assert rows[0].recall == 1.0
    assert rows[0].n_overlapping > 0


def test_evaluate_map_pair_wrong_truth_gives_zero_recall():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 5.0, size=(15, 3)) * np.array([1.0, 1.0, 0.3])
    truth = RigidTransform(rotation_z(60.0), np.array([5.0, -3.0, 0.0]))
    wrong = RigidTransform(rotation_z(-60.0), np.array([-20.0, 10.0, 0.0]))
    ma = map_from_points(pts)
    mb = map_from_points(truth.apply(pts))
    outcomes, _, _ = evaluate_map_pair(ma, mb, wrong, Hyperparameters())
    rows = precision_recall(outcomes, Hyperparameters(), [4])
    assert rows[0].precision == 0.0


def test_timing_rejects_maps_without_submaps():
    # 4 landmarks cannot fill a submap that passes |S| > s_max = 4
    m = map_from_points(np.random.default_rng(6).uniform(size=(4, 3)))
    subs = generate_submaps(m, Hyperparameters())
    assert subs == []
    with pytest.raises(ValueError, match="no submap pair"):
        timing(subs, subs, Hyperparameters())
    outcomes, mean_s, std_s = evaluate_map_pair(m, m, identity(),
                                                Hyperparameters())
    assert outcomes == [] and np.isnan(mean_s) and np.isnan(std_s)


def test_timing_small_pair_is_fast(monkeypatch):
    # no host-seconds gate, which load on the host can fail: the test checks
    # the work timing does, and bounds its seconds by the call's own wall time
    rng = np.random.default_rng(7)
    m = map_from_points(rng.uniform(0.0, 0.8, size=(5, 3)))
    subs = generate_submaps(m, Hyperparameters())
    solve = alignment.solve_submap_pair
    calls = []

    def counting(sa, sb, *args):
        calls.append((sa.landmark_ids, sb.landmark_ids))
        return solve(sa, sb, *args)

    monkeypatch.setattr(alignment, "solve_submap_pair", counting)
    t0 = time.perf_counter()
    first, mean_s, std_s = timing(subs, subs, Hyperparameters())
    elapsed = time.perf_counter() - t0
    assert len({s.landmark_ids for s in subs}) == 1     # one distinct pair
    assert [(ga, gb) for ga, gb, *_ in first] == [(tuple(range(len(subs))),) * 2]
    assert calls == [(subs[0].landmark_ids,) * 2] * 3
    assert math.isfinite(mean_s) and std_s >= 0.0
    assert 0.0 < 3 * mean_s <= elapsed      # seconds per solve, three solves
