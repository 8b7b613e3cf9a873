import math
import tracemalloc

import numpy as np
import pytest

from vista_align import simulation
from vista_align.core import BATCH_ROWS, Hyperparameters, ObjectMap, project, rotation_y
from vista_align.simulation import (SceneSpec, TrajectorySpec, generate_scene,
                                    perturb_frame, render_tracks,
                                    trajectory_poses)
from vista_align import triangulation as tri


def nadir_trajectory(frames=40, altitude=8.0, pitch=0.0):
    return TrajectorySpec(waypoints=[(1.0, 1.0, 0.0), (1.0, 9.0, 0.0),
                                     (5.0, 9.0, 0.0), (5.0, 1.0, 0.0),
                                     (9.0, 1.0, 0.0), (9.0, 9.0, 0.0)],
                          frames=frames, camera_pitch=pitch, altitude=altitude)


def test_generate_scene_deterministic():
    spec = SceneSpec(20, (10.0, 10.0, 2.0), seed=3)
    s1, s2 = generate_scene(spec), generate_scene(spec)
    assert len(s1) == 20
    assert s1.positions.shape == s1.velocities.shape == (20, 3)
    assert s1.dynamic.shape == (20,)
    assert np.array_equal(s1.positions, s2.positions)
    assert np.array_equal(s1.velocities, s2.velocities)
    assert np.array_equal(s1.dynamic, s2.dynamic)


def test_generate_scene_object_counts():
    scene = generate_scene(SceneSpec(36, (10.0, 10.0, 1.5), seed=0))
    assert len(scene) == 36
    assert not scene.dynamic.any()


def test_generate_scene_dynamic_flags():
    scene = generate_scene(SceneSpec(100, (10.0, 10.0, 2.0), n_dynamic=10,
                                     dynamic_velocity=1.0, seed=1))
    assert np.count_nonzero(scene.dynamic) == 10
    moving = scene.velocities[scene.dynamic]
    assert np.linalg.norm(moving, axis=1) == pytest.approx(np.ones(10))
    assert np.all(moving[:, 2] == 0.0)
    assert np.all(scene.velocities[~scene.dynamic] == 0.0)


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(5, (10.0, 10.0, 2.0), n_dynamic=6)
    with pytest.raises(ValueError):
        SceneSpec(5, (10.0, -1.0, 2.0))


def test_trajectory_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], frames=1)
    with pytest.raises(ValueError):
        TrajectorySpec([(0.0, 0.0, 0.0)], frames=10)
    with pytest.raises(ValueError):
        TrajectorySpec([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], frames=10,
                       camera_pitch=90.0)


def test_trajectory_poses_endpoints_and_altitude():
    traj = nadir_trajectory(frames=25, altitude=7.5)
    poses = trajectory_poses(traj)
    assert len(poses) == 25
    assert np.allclose(poses[0].translation, [1.0, 1.0, 7.5])
    assert np.allclose(poses[24].translation, [9.0, 9.0, 7.5])
    assert (poses.translations[:, 2] == 7.5).all()


def reference_translations(trajectory):
    """trajectory_poses' camera positions one frame at a time."""
    wps = np.array(trajectory.waypoints, dtype=float)
    seg = np.linalg.norm(np.diff(wps[:, :2], axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    out = []
    for f in range(trajectory.frames):
        s = total * f / (trajectory.frames - 1)
        k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
        frac = (s - cum[k]) / seg[k] if seg[k] > 0 else 0.0
        xy = wps[k, :2] + frac * (wps[k + 1, :2] - wps[k, :2])
        out.append(np.array([xy[0], xy[1], trajectory.altitude]))
    return np.array(out)


def test_trajectory_poses_equal_per_frame_loop_exactly():
    # a repeated waypoint gives a zero-length segment
    for trajectory in [nadir_trajectory(frames=57, pitch=30.0),
                       TrajectorySpec([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (3.0, 4.0, 0.0),
                                       (3.0, -1.5, 0.0)], frames=13, altitude=7)]:
        poses = trajectory_poses(trajectory)
        assert poses.frames == tuple(range(trajectory.frames))
        assert np.array_equal(poses.translations, reference_translations(trajectory))
        R = np.diag([1.0, -1.0, -1.0]) @ rotation_y(trajectory.camera_pitch)
        assert (poses.rotations == R).all()


def test_scene_objects_cap_is_checked_before_allocation():
    assert SceneSpec(SceneSpec.MAX_OBJECTS, (1.0, 1.0, 1.0)).n_objects == 100_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_objects must be <= 100000"):
            SceneSpec(2 ** 70, (1.0, 1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_trajectory_frames_cap_is_checked_before_allocation():
    waypoints = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    assert TrajectorySpec(waypoints, TrajectorySpec.MAX_FRAMES).frames == 100_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="frames must be <= 100000"):
            TrajectorySpec(waypoints, frames=2 ** 70)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_nadir_camera_looks_down(intrinsics):
    poses = trajectory_poses(nadir_trajectory())
    p = poses[0]
    # a point directly below the camera projects to the principal point
    below = p.translation - np.array([0.0, 0.0, 5.0])
    assert np.allclose(project(p, intrinsics, below),
                       [intrinsics.cx, intrinsics.cy], atol=1e-9)


def test_oblique_camera_tilts_forward(intrinsics):
    poses = trajectory_poses(nadir_trajectory(pitch=45.0))
    p = poses[0]
    # the optical axis now hits the ground ahead in +x, not below
    ahead = p.translation + np.array([p.translation[2], 0.0, -p.translation[2]])
    assert np.allclose(project(p, intrinsics, ahead),
                       [intrinsics.cx, intrinsics.cy], atol=1e-9)


def test_render_tracks_zero_noise_triangulates_exactly(intrinsics):
    scene = generate_scene(SceneSpec(36, (10.0, 10.0, 1.5), seed=2))
    tracks, poses = render_tracks(scene, nadir_trajectory(frames=60),
                                  intrinsics, seed=2)
    params = Hyperparameters()
    obj_map, stats = tri.build_map(tracks, poses, intrinsics, params, "a")
    assert stats.n_discarded_diverged == 0
    assert len(obj_map) >= 30
    for lid, position in zip(obj_map.ids, obj_map.positions):
        assert np.linalg.norm(position - scene.positions[lid]) < 1e-6


def test_render_tracks_detections_in_image(intrinsics):
    scene = generate_scene(SceneSpec(50, (12.0, 12.0, 2.0), seed=3))
    tracks, _ = render_tracks(scene, nadir_trajectory(), intrinsics,
                              noise=2.0, seed=3)
    for u, v in tracks.centroids:
        assert 0 <= u < intrinsics.width
        assert 0 <= v < intrinsics.height


def test_render_tracks_full_dropout(intrinsics):
    scene = generate_scene(SceneSpec(10, (10.0, 10.0, 1.0), seed=4))
    tracks, _ = render_tracks(scene, nadir_trajectory(), intrinsics,
                              dropout=1.0, seed=4)
    assert len(tracks) == 0 and len(tracks.centroids) == 0


def test_render_tracks_duplicates_split_ids(intrinsics):
    scene = generate_scene(SceneSpec(30, (10.0, 10.0, 1.0), seed=5))
    base, _ = render_tracks(scene, nadir_trajectory(), intrinsics, seed=5)
    split, _ = render_tracks(scene, nadir_trajectory(), intrinsics,
                             duplicate_rate=1.0, seed=5)
    assert len(split) > len(base)
    assert len(split.ids) == len(set(split.ids))


def test_render_tracks_deterministic(intrinsics):
    scene = generate_scene(SceneSpec(15, (10.0, 10.0, 1.0), seed=6))
    t1, _ = render_tracks(scene, nadir_trajectory(), intrinsics, noise=0.5,
                          seed=6)
    t2, _ = render_tracks(scene, nadir_trajectory(), intrinsics, noise=0.5,
                          seed=6)
    assert t1.ids == t2.ids
    for column in ("starts", "pose_rows", "centroids"):
        assert np.array_equal(getattr(t1, column), getattr(t2, column))


def reference_scene(spec):
    """generate_scene one object at a time."""
    rng = np.random.default_rng(spec.seed)
    positions = rng.uniform(0.0, np.array(spec.extent), size=(spec.n_objects, 3))
    dynamic_idx = set(rng.choice(spec.n_objects, size=spec.n_dynamic,
                                 replace=False).tolist()) if spec.n_dynamic else set()
    objects = []
    for i in range(spec.n_objects):
        velocity = np.zeros(3)
        if i in dynamic_idx:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            velocity = spec.dynamic_velocity * np.array([math.cos(heading),
                                                         math.sin(heading), 0.0])
        objects.append((positions[i].copy(), velocity, i in dynamic_idx))
    return objects


def reference_render(objects, trajectory, intrinsics, noise, dropout,
                     duplicate_rate, seed):
    """render_tracks one object and one detection at a time, projecting each
    point as R' (p - t); returns (track_id, frames, centroids) triples and the
    number of points seen behind the camera."""
    rng = np.random.default_rng(seed)
    split = [duplicate_rate > 0 and rng.uniform() < duplicate_rate for _ in objects]
    poses = trajectory_poses(trajectory)
    seen = []           # (object, frame, pixel) in (frame, object) order
    n_behind = 0

    def inside(px):
        return 0 <= px[0] < intrinsics.width and 0 <= px[1] < intrinsics.height

    for f in range(len(poses)):
        R, t = poses[f].rotation, poses[f].translation
        for i, (position, velocity, _) in enumerate(objects):
            p_cam = R.T @ (position + velocity * f - t)
            z = p_cam[2]
            if z <= 1e-6:
                n_behind += 1
                continue
            px = np.array([intrinsics.fx * p_cam[0] / z + intrinsics.cx,
                           intrinsics.fy * p_cam[1] / z + intrinsics.cy])
            if not inside(px):
                continue
            if noise > 0:
                px = px + rng.normal(0.0, noise, size=2)
                if not inside(px):
                    continue
            seen.append((i, f, px))
    detections = [[] for _ in objects]
    for i, f, px in seen:       # every noise pair is drawn before any uniform
        if not (dropout > 0 and rng.uniform() < dropout):
            detections[i].append((f, px))
    tracks, next_id = [], len(objects)
    for i, dets in enumerate(detections):
        m = len(dets)
        if not m:
            continue
        cut = int(rng.integers(1, m)) if split[i] and m >= 2 else m
        tracks.append((i, dets[:cut]))
        if cut < m:
            tracks.append((next_id, dets[cut:]))
            next_id += 1
    return [(i, tuple(f for f, _ in d), np.array([px for _, px in d]))
            for i, d in tracks], n_behind


# (noise, dropout, duplicate_rate): render_tracks draws a block's noise in one
# call and, after the last block, one dropout uniform per detection still in
# the image; each mode must equal the one-detection-at-a-time reference
DRAW_MODES = {"noise": (0.7, 0.0, 0.0), "dropout": (0.0, 0.2, 0.0),
              "noise+dropout+duplicates": (0.7, 0.2, 0.3), "none": (0.0, 0.0, 0.0)}


@pytest.mark.parametrize("draws", DRAW_MODES.values(), ids=DRAW_MODES.keys())
@pytest.mark.parametrize("pitch", [0.0, 45.0])
def test_render_tracks_equals_per_object_loop_exactly(intrinsics, pitch, draws):
    spec = SceneSpec(60, (10.0, 10.0, 1.5), n_dynamic=12, dynamic_velocity=1.0,
                     seed=9)
    trajectory = nadir_trajectory(frames=40, pitch=pitch)
    scene = generate_scene(spec)
    objects = reference_scene(spec)
    assert np.array_equal(scene.positions, [o[0] for o in objects])
    assert np.array_equal(scene.velocities, [o[1] for o in objects])
    assert np.array_equal(scene.dynamic, [o[2] for o in objects])
    noise, dropout, duplicate_rate = draws
    tracks, _ = render_tracks(scene, trajectory, intrinsics, noise=noise,
                              dropout=dropout, duplicate_rate=duplicate_rate,
                              seed=9)
    expected, n_behind = reference_render(objects, trajectory, intrinsics,
                                          noise, dropout, duplicate_rate, 9)
    assert n_behind > 0 or pitch == 0.0
    assert len(tracks) == len(expected) > len(scene) // 2
    for track_id, r, (want_id, frames, centroids) in zip(tracks.ids, tracks, expected):
        assert (track_id, tuple(tracks.pose_rows[r].tolist())) == (want_id, frames)
        assert np.array_equal(tracks.centroids[r], centroids)


@pytest.mark.parametrize("draws", DRAW_MODES.values(), ids=DRAW_MODES.keys())
def test_render_tracks_is_the_same_at_any_block_size(intrinsics, monkeypatch, draws):
    # 50 objects x 120 frames, 6,000 rows: one frame a block, 14 frames a
    # block and the default's 81 split the trajectory at different frames
    scene = generate_scene(SceneSpec(50, (10.0, 10.0, 1.5), n_dynamic=10,
                                     dynamic_velocity=1.0, seed=5))
    trajectory = nadir_trajectory(frames=120, pitch=45.0)
    noise, dropout, duplicate_rate = draws
    tables = []
    for rows in (1, 700, BATCH_ROWS):
        monkeypatch.setattr(simulation, "BATCH_ROWS", rows)
        tracks, _ = render_tracks(scene, trajectory, intrinsics, noise=noise,
                                  dropout=dropout, duplicate_rate=duplicate_rate,
                                  seed=5)
        tables.append(tracks)
    assert len(scene) * 120 > BATCH_ROWS and len(tables[0]) > len(scene) // 2
    for tracks in tables[1:]:
        assert tracks.ids == tables[0].ids
        for column in ("starts", "pose_rows", "centroids"):
            assert np.array_equal(getattr(tracks, column), getattr(tables[0], column))


def test_perturb_frame_identity():
    scene = generate_scene(SceneSpec(10, (5.0, 5.0, 1.0), seed=7))
    m = ObjectMap("truth", range(len(scene)), scene.positions,
                  np.zeros((len(scene), 3, 3)))
    m2, truth = perturb_frame(m, 0.0, [0.0, 0.0, 0.0])
    assert np.allclose(truth.rotation, np.eye(3))
    assert np.allclose(truth.translation, 0.0)
    assert np.allclose(m2.positions, m.positions)


def test_perturb_frame_transforms_positions_and_covariances():
    rng = np.random.default_rng(8)
    positions, covariances = [], []
    for _ in range(6):
        A = rng.normal(size=(3, 3)) * 0.1
        positions.append(rng.uniform(size=3))
        covariances.append(A @ A.T)
    m = ObjectMap("a", range(6), positions, covariances)
    m2, truth = perturb_frame(m, 90.0, [5.0, 0.0, 0.0])
    assert np.allclose(m2.positions, truth.apply(m.positions), atol=1e-12)
    for a, b in zip(m.covariances, m2.covariances):
        wa = np.linalg.eigvalsh(a)
        wb = np.linalg.eigvalsh(b)
        assert np.allclose(wa, wb, atol=1e-12)


@pytest.mark.parametrize("yaw", [0.0, 37.5, -123.0])
def test_perturb_frame_equals_per_landmark_loop_exactly(yaw):
    # the bulk products must give each landmark's bits, as one
    # `truth.apply(p)` and one R C R' would
    rng = np.random.default_rng(21)
    A = rng.normal(size=(40, 3, 3))
    m = ObjectMap("a", range(40), rng.uniform(-50.0, 50.0, size=(40, 3)),
                  A @ A.transpose(0, 2, 1))
    m2, truth = perturb_frame(m, yaw, [3.0, -7.5, 0.25])
    R = truth.rotation
    for p, C, q, D in zip(m.positions, m.covariances, m2.positions, m2.covariances):
        cov = R @ C @ R.T
        assert np.array_equal(q, truth.apply(p))
        assert np.array_equal(D, 0.5 * (cov + cov.T))
