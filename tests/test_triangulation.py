import numpy as np
import pytest

from vista_align import triangulation as tri
from vista_align.core import (DegenerateGeometryError, DivergedError,
                              Hyperparameters, RigidTransform, Track, project)

from conftest import looking_at_origin_pose, random_rotation


def make_track(point, poses, intrinsics, track_id=0, noise=0.0, rng=None,
               motion=None):
    """Forward-project `point` (optionally moving by `motion` per frame)."""
    point = np.asarray(point, dtype=float)
    pixels = []
    for f in sorted(poses):
        p = point if motion is None else point + np.asarray(motion) * f
        px = project(poses[f], intrinsics, p)
        if noise > 0:
            px = px + rng.normal(0.0, noise, size=2)
        pixels.append(px)
    return Track(track_id, sorted(poses), pixels)


def ring_poses(target, n=5, radius=6.0):
    """Cameras on a ring around `target`, all looking at it."""
    target = np.asarray(target, dtype=float)
    poses = {}
    for f in range(n):
        ang = 2.0 * np.pi * f / n
        offset = radius * np.array([np.cos(ang), np.sin(ang), 0.8])
        # shift the look-at ring from the origin to the target
        poses[f] = RigidTransform(looking_at_origin_pose(offset).rotation,
                                  target + offset)
    return poses


def test_filter_tracks_strict_inequality():
    t3 = Track(0, range(3), np.ones((3, 2)))
    t4 = Track(1, range(4), np.ones((4, 2)))
    assert tri.filter_tracks([t3, t4], 3) == [t4]


def test_filter_tracks_empty_and_order():
    assert tri.filter_tracks([], 3) == []
    tracks = [Track(i, range(5), np.ones((5, 2))) for i in range(4)]
    assert tri.filter_tracks(tracks, 3) == tracks


def test_filter_tracks_rejects_bad_n_min():
    with pytest.raises(ValueError):
        tri.filter_tracks([], 0)


def test_initial_guess_two_orthogonal_rays(intrinsics):
    target = np.array([1.0, 2.0, 5.0])
    poses = {0: looking_at_origin_pose([8.0, 2.0, 5.0]),
             1: looking_at_origin_pose([1.0, -7.0, 5.0])}
    # re-center both cameras so their optical axes cross at the target
    poses = {f: RigidTransform(p.rotation, p.translation + target)
             for f, p in poses.items()}
    track = make_track(target, poses, intrinsics)
    assert np.allclose(tri.initial_guess(track, poses, intrinsics), target,
                       atol=1e-9)


def test_initial_guess_five_poses(intrinsics):
    target = np.array([3.0, -1.0, 8.0])
    poses = ring_poses(target)
    track = make_track(target, poses, intrinsics)
    assert np.allclose(tri.initial_guess(track, poses, intrinsics), target,
                       atol=1e-6)


def test_initial_guess_parallel_rays_degenerate(intrinsics):
    pose = looking_at_origin_pose([5.0, 0.0, 3.0])
    poses = {0: pose, 1: pose}
    track = Track(0, [0, 1], [[320.0, 240.0], [320.0, 240.0]])
    with pytest.raises(DegenerateGeometryError):
        tri.initial_guess(track, poses, intrinsics)


def test_refine_zero_noise_recovers_point(intrinsics):
    target = np.array([3.0, -1.0, 8.0])
    poses = ring_poses(target)
    track = make_track(target, poses, intrinsics)
    guess = tri.initial_guess(track, poses, intrinsics)
    position, covariance = tri.refine(track, poses, intrinsics, guess)
    assert np.linalg.norm(position - target) < 1e-6
    assert np.trace(covariance) < 1e-10


def test_refine_converges_from_offset_guess(intrinsics):
    target = np.array([0.5, 0.25, 2.0])
    poses = ring_poses(target, n=8, radius=4.0)
    track = make_track(target, poses, intrinsics)
    position, _ = tri.refine(track, poses, intrinsics, target + [0.8, -0.5, 0.6])
    assert np.linalg.norm(position - target) < 1e-6


def test_refine_dynamic_object_diverges(intrinsics):
    # object moving 1 m/frame seen by 6 poses: no static point fits
    target = np.array([0.0, 0.0, 0.0])
    poses = ring_poses(target, n=6, radius=8.0)
    track = make_track(target, poses, intrinsics, motion=[1.0, 0.0, 0.0])
    guess = tri.initial_guess(track, poses, intrinsics)
    with pytest.raises(DivergedError):
        tri.refine(track, poses, intrinsics, guess)


def test_refine_rejects_non_finite_guess(intrinsics):
    poses = ring_poses([0.0, 0.0, 0.0])
    track = make_track([0.0, 0.0, 0.0], poses, intrinsics)
    with pytest.raises(ValueError):
        tri.refine(track, poses, intrinsics, [np.nan, 0.0, 0.0])


def test_refine_covariance_is_psd_and_scales_with_noise(intrinsics):
    target = np.array([0.0, 0.5, 1.0])
    poses = ring_poses(target, n=20, radius=5.0)
    rng = np.random.default_rng(42)
    track = make_track(target, poses, intrinsics, noise=1.0, rng=rng)
    guess = tri.initial_guess(track, poses, intrinsics)
    _, covariance = tri.refine(track, poses, intrinsics, guess)
    w = np.linalg.eigvalsh(covariance)
    assert w.min() >= 0.0
    assert 1e-8 < np.trace(covariance) < 1.0


def test_jacobian_matches_finite_differences(intrinsics):
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        pose = RigidTransform(random_rotation(rng), rng.normal(scale=3.0, size=3))
        # choose a point safely in front of this camera
        depth = rng.uniform(2.0, 10.0)
        point = pose.rotation @ np.array([rng.uniform(-1, 1),
                                          rng.uniform(-1, 1), depth]) \
            + pose.translation
        J = tri.reprojection_jacobian(pose, intrinsics, point)
        J_fd = np.zeros((2, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            pp = project(pose, intrinsics, point + e)
            pm = project(pose, intrinsics, point - e)
            J_fd[:, k] = (pp - pm) / (2 * h)
        rel = np.abs(J - J_fd) / np.maximum(np.abs(J_fd), 1.0)
        assert rel.max() < 1e-4


def test_build_map_counts_and_ids(intrinsics):
    rng = np.random.default_rng(1)
    params = Hyperparameters()
    poses = ring_poses([0.0, 0.0, 0.0], n=8, radius=6.0)
    tracks = []
    for i in range(10):
        target = rng.uniform(-0.5, 0.5, size=3)
        tracks.append(make_track(target, poses, intrinsics, track_id=i))
    # a too-short track and a dynamic track
    short = Track(10, range(3), [[320.0, 240.0]] * 3)
    dynamic = make_track([0.0, 0.0, 0.0], poses, intrinsics, track_id=11,
                         motion=[1.0, 0.0, 0.0])
    obj_map, stats = tri.build_map(tracks + [short, dynamic], poses,
                                   intrinsics, params, "agent")
    assert stats.n_landmarks == 10
    assert stats.n_discarded_short == 1
    assert stats.n_discarded_diverged == 1
    assert sorted(obj_map.ids) == list(range(10))
    assert obj_map.agent_id == "agent"


def test_build_map_order_invariant(intrinsics):
    rng = np.random.default_rng(2)
    params = Hyperparameters()
    poses = ring_poses([0.0, 0.0, 0.0], n=6, radius=6.0)
    tracks = [make_track(rng.uniform(-0.5, 0.5, size=3), poses, intrinsics,
                         track_id=i) for i in range(8)]
    m1, _ = tri.build_map(tracks, poses, intrinsics, params, "a")
    m2, _ = tri.build_map(tracks[::-1], poses, intrinsics, params, "a")
    by_id_1 = dict(zip(m1.ids, m1.positions))
    by_id_2 = dict(zip(m2.ids, m2.positions))
    assert set(by_id_1) == set(by_id_2)
    for i in by_id_1:
        assert np.allclose(by_id_1[i], by_id_2[i], atol=1e-12)


def test_build_map_empty_warns(intrinsics):
    poses = ring_poses([0.0, 0.0, 0.0], n=4)
    short = [Track(i, range(2), [[320.0, 240.0]] * 2) for i in range(3)]
    with pytest.warns(UserWarning):
        obj_map, stats = tri.build_map(short, poses, intrinsics,
                                       Hyperparameters(), "a")
    assert len(obj_map) == 0
    assert stats.n_discarded_short == 3
