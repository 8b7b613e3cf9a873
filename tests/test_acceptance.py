"""Acceptance harness: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines live).
"""

import math
import time

import numpy as np
import pytest

from vista_align import formats
from vista_align import triangulation as tri
from vista_align.alignment import align_maps, arun
from vista_align.association import consistency_score, densest_clique
from vista_align.core import (CameraIntrinsics, Hyperparameters, ObjectMap,
                              RigidTransform, project)
from vista_align.evaluation import (PairOutcome, classify, evaluate_map_pair,
                                    precision_recall, timing)
from vista_align.simulation import (SceneSpec, TrajectorySpec, generate_scene,
                                    perturb_frame, render_tracks)
from vista_align.submap import generate_submaps, mahalanobis_filter

from conftest import (affinity_from_dense, dense, densest_clique_exact,
                      grid_hypotheses, map_from_points, pose_table,
                      random_rotation, reprojection_jacobian, track_table)

INTRINSICS = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)

LAWNMOWER = [(1.0, 1.0, 0.0), (1.0, 9.0, 0.0), (4.0, 9.0, 0.0),
             (4.0, 1.0, 0.0), (7.0, 1.0, 0.0), (7.0, 9.0, 0.0),
             (9.0, 9.0, 0.0), (9.0, 1.0, 0.0)]


def _report(criterion, ok):
    print("acceptance criterion %d: %s" % (criterion, "PASS" if ok else "FAIL"))
    assert ok


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    M = rng.uniform(size=(n, n))
    M = 0.5 * (M + M.T)
    M[M < rng.uniform(0.2, 0.7)] = 0.0
    np.fill_diagonal(M, 1.0)
    return affinity_from_dense(M)


def _density(idx, M):
    return float(M[np.ix_(idx, idx)].sum()) / len(idx)


def test_criterion_1_clique_oracle_equivalence():
    t0 = time.perf_counter()
    card_match = 0
    density_ok = 0
    for seed in range(500):
        aff = _random_instance(seed)
        got = densest_clique(aff)
        opt = densest_clique_exact(aff)
        if len(got) == len(opt):
            card_match += 1
        if _density(got, dense(aff)) >= 0.95 * _density(opt, dense(aff)):
            density_ok += 1
    elapsed = time.perf_counter() - t0
    _report(1, card_match >= 450 and density_ok == 500 and elapsed < 10.0)


def test_criterion_2_consistency_score_exactness():
    exact = abs(consistency_score(0.1, 0.05, 0.1) - math.exp(-2.0)) < 1e-12
    xs = np.linspace(-0.5, 0.5, 1000)
    scores = consistency_score(xs, 0.05, 0.1)
    cutoff = bool(np.all(scores[np.abs(xs) > 0.1] == 0.0))
    inside = bool(np.allclose(scores[np.abs(xs) <= 0.1],
                              np.exp(-0.5 * (xs[np.abs(xs) <= 0.1] / 0.05) ** 2),
                              atol=1e-12))
    _report(2, exact and cutoff and inside)


def test_criterion_3_arun_recovery():
    rng = np.random.default_rng(2024)
    clean_ok = True
    scaled_errors = []
    for _ in range(1000):
        n = int(rng.integers(5, 51))
        pa = rng.uniform(-10.0, 10.0, size=(n, 3))
        truth = RigidTransform(random_rotation(rng),
                               rng.uniform(-100.0, 100.0, size=3))
        pb = truth.apply(pa)
        t = arun(pa, pb)
        err_r = np.linalg.norm(t.rotation - truth.rotation)
        err_t = np.linalg.norm(t.translation - truth.translation)
        if err_r > 1e-9 or err_t > 1e-9:
            clean_ok = False
        sigma = rng.uniform(0.005, 0.05)
        tn = arun(pa, pb + rng.normal(0.0, sigma, size=pb.shape))
        scaled_errors.append(np.linalg.norm(tn.translation - truth.translation)
                             * math.sqrt(n) / sigma)
    # translation error behaves like sigma/sqrt(n); require the scaled RMS
    # over all noisy trials to stay below 3
    noisy_ok = float(np.sqrt(np.mean(np.square(scaled_errors)))) < 3.0

    # planar points force the reflection-correction branch
    pa = rng.uniform(-5.0, 5.0, size=(10, 3))
    pa[:, 2] = 0.0
    truth = RigidTransform(random_rotation(rng), rng.uniform(-3, 3, size=3))
    t = arun(pa, truth.apply(pa))
    planar_ok = (abs(np.linalg.det(t.rotation) - 1.0) < 1e-9
                 and np.linalg.norm(t.rotation - truth.rotation) < 1e-9)
    _report(3, clean_ok and noisy_ok and planar_ok)


def _ring_poses(target, n, radius):
    target = np.asarray(target, dtype=float)
    poses = {}
    for f in range(n):
        ang = 2.0 * np.pi * f / n
        position = target + radius * np.array([np.cos(ang), np.sin(ang), 0.8])
        z = (target - position) / np.linalg.norm(target - position)
        x = np.cross([0.0, 0.0, 1.0], z)
        x /= np.linalg.norm(x)
        y = np.cross(z, x)
        poses[f] = RigidTransform(np.column_stack([x, y, z]), position)
    return pose_table(poses)


def _track_from(point, poses, noise, rng, track_id=0):
    """A (track_id, rows, centroids) track of `point` seen in every pose."""
    pixels = []
    for f in range(len(poses)):
        px = project(poses[f], INTRINSICS, point)
        if noise > 0:
            px = px + rng.normal(0.0, noise, size=2)
        pixels.append(px)
    return track_id, range(len(poses)), pixels


def _triangulate(tracks, poses):
    """initial_guess then refine of every track: (positions, covariances,
    statuses)."""
    guesses, degenerate = tri.initial_guess(tracks, poses, INTRINSICS)
    assert not degenerate.any()
    return tri.refine(tracks, poses, INTRINSICS, guesses)


def test_criterion_4_triangulation():
    rng = np.random.default_rng(99)

    # zero-noise recovery
    target = np.array([3.0, -1.0, 8.0])
    poses = _ring_poses(target, 8, 6.0)
    positions, _, status = _triangulate(
        track_table([_track_from(target, poses, 0.0, rng)]), poses)
    zero_noise_ok = (status[0] == tri.KEPT
                     and np.linalg.norm(positions[0] - target) < 1e-6)

    # analytic Jacobian vs central finite differences
    h = 1e-6
    jac_ok = True
    for _ in range(100):
        pose = RigidTransform(random_rotation(rng), rng.normal(scale=3.0, size=3))
        point = pose.rotation @ np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                                          rng.uniform(2.0, 10.0)]) \
            + pose.translation
        J = reprojection_jacobian(pose, INTRINSICS, point)
        J_fd = np.zeros((2, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            J_fd[:, k] = (project(pose, INTRINSICS, point + e)
                          - project(pose, INTRINSICS, point - e)) / (2 * h)
        if (np.abs(J - J_fd) / np.maximum(np.abs(J_fd), 1.0)).max() >= 1e-4:
            jac_ok = False

    # Monte-Carlo covariance consistency, 1000 trials at 1 px noise
    target = np.array([0.0, 0.5, 1.0])
    poses = _ring_poses(target, 20, 5.0)
    tracks = track_table([_track_from(target, poses, 1.0, rng, k)
                          for k in range(1000)])
    positions, covariances, status = _triangulate(tracks, poses)
    kept = status == tri.KEPT
    err = np.linalg.norm(positions[kept] - target, axis=1)
    hits = np.count_nonzero(err <= 3.0 * np.sqrt(np.trace(covariances[kept],
                                                          axis1=1, axis2=2)))
    mc_ok = hits >= 990
    _report(4, zero_noise_ok and jac_ok and mc_ok)


def _build_synthetic_map(scene, trajectory, params, seed, agent):
    tracks, poses = render_tracks(scene, trajectory, INTRINSICS, noise=0.3,
                                  seed=seed)
    return tri.build_map(tracks, poses, INTRINSICS, params, agent)[0]


@pytest.fixture(scope="module")
def end_to_end():
    """20-seed nadir-vs-oblique localization run; shared by criteria 5 and 9."""
    params = Hyperparameters(theta_rp=6.0)
    nadir = TrajectorySpec(LAWNMOWER, frames=100, camera_pitch=0.0, altitude=8.0)
    oblique = TrajectorySpec([(x - 6.5, y, z) for x, y, z in LAWNMOWER],
                             frames=100, camera_pitch=45.0, altitude=8.0)
    t0 = time.perf_counter()
    outcomes = []
    top_correct = []
    for seed in range(20):
        scene = generate_scene(SceneSpec(36, (10.0, 10.0, 1.5), seed=seed))
        map_a = _build_synthetic_map(scene, nadir, params, 2 * seed + 1, "a")
        map_b0 = _build_synthetic_map(scene, oblique, params, 2 * seed + 2, "b")
        rng = np.random.default_rng(1000 + seed)
        map_b, truth = perturb_frame(map_b0, float(rng.uniform(-60.0, 60.0)),
                                     [float(rng.uniform(-5.0, 5.0)),
                                      float(rng.uniform(-5.0, 5.0)), 0.0])
        outcomes.extend(evaluate_map_pair(
            mahalanobis_filter(map_a, params.omega_percentile),
            mahalanobis_filter(map_b, params.omega_percentile),
            truth, params)[0])
        if seed < 3:
            hyps = grid_hypotheses(align_maps(map_a, map_b, params))
            top_correct.append(bool(hyps)
                               and classify(hyps[0], truth, params))
    return outcomes, top_correct, time.perf_counter() - t0


def test_criterion_5_end_to_end_localization(end_to_end):
    outcomes, top_correct, elapsed = end_to_end
    params = Hyperparameters(theta_rp=6.0)
    row = precision_recall(outcomes, params, [4])[0]
    ok = (all(top_correct) and row.recall >= 0.5 and row.precision >= 0.8
          and elapsed < 300.0)
    print("end-to-end: precision=%.3f recall=%.3f pairs=%d elapsed=%.1fs"
          % (row.precision, row.recall, sum(o.pairs for o in outcomes),
             elapsed))
    _report(5, ok)


def test_criterion_6_dynamic_object_rejection():
    params = Hyperparameters()
    trajectory = TrajectorySpec(LAWNMOWER, frames=100, altitude=8.0)
    static_total = static_kept = 0
    dynamic_total = dynamic_rejected = 0
    for seed in range(10):
        scene = generate_scene(SceneSpec(100, (10.0, 10.0, 1.5), n_dynamic=10,
                                         dynamic_velocity=1.0, seed=seed))
        tracks, poses = render_tracks(scene, trajectory, INTRINSICS, noise=0.5,
                                      seed=seed + 500)
        obj_map, _ = tri.build_map(tracks, poses, INTRINSICS, params, "a")
        built = set(obj_map.ids)
        for track_id, detections in zip(tracks.ids, tracks):
            if len(detections) <= params.n_min:
                continue        # never reached refinement
            if scene.dynamic[track_id]:
                dynamic_total += 1
                if track_id not in built:
                    dynamic_rejected += 1
            else:
                static_total += 1
                if track_id in built:
                    static_kept += 1
    dyn_rate = dynamic_rejected / max(1, dynamic_total)
    stat_rate = static_kept / max(1, static_total)
    print("dynamic rejection: %.3f (%d/%d), static survival: %.3f (%d/%d)"
          % (dyn_rate, dynamic_rejected, dynamic_total,
             stat_rate, static_kept, static_total))
    _report(6, dyn_rate >= 0.95 and stat_rate >= 0.95)


def test_criterion_7_map_compactness():
    rng = np.random.default_rng(7)
    positions, covariances = [], []
    for _ in range(1000):
        A = rng.normal(size=(3, 3)) * 0.01
        positions.append(rng.uniform(0.0, 100.0, size=3))
        covariances.append(A @ A.T)
    text = formats.map_to_json(ObjectMap("a", range(1000), positions, covariances))
    size = len(text.encode())
    print("1000-landmark map: %d bytes" % size)
    _report(7, size < 0.25e6)


def test_criterion_8_comparison_timing():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 10.0, size=(50, 3)) * np.array([1.0, 1.0, 0.15])
    map_a = map_from_points(pts)
    map_b, _ = perturb_frame(map_a, 30.0, [2.0, -1.0, 0.0])
    params = Hyperparameters()
    _, mean, std = timing(generate_submaps(map_a, params),
                          generate_submaps(map_b, params), params)
    print("50x50 comparison: %.3f s +- %.3f s" % (mean, std))
    _report(8, mean < 1.5)


def test_criterion_9_monotonicity(end_to_end):
    params = Hyperparameters()
    sweep = list(range(0, 21))

    def monotone(outcomes):
        rows = precision_recall(outcomes, params, sweep)
        recalls = [r.recall for r in rows]
        hyped = [r.n_hypothesized for r in rows]
        return (all(a >= b for a, b in zip(recalls, recalls[1:]))
                and all(a >= b for a, b in zip(hyped, hyped[1:])))

    rng = np.random.default_rng(9)
    tables_ok = True
    for _ in range(100):
        outcomes = [PairOutcome(float(rng.uniform()),
                                int(rng.integers(0, 25)),
                                bool(rng.uniform() < 0.8),
                                bool(rng.uniform() < 0.5),
                                int(rng.integers(1, 51)))
                    for _ in range(int(rng.integers(5, 120)))]
        if not monotone(outcomes):
            tables_ok = False
    e2e_outcomes, _, _ = end_to_end
    _report(9, tables_ok and monotone(e2e_outcomes))
