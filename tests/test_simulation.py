import numpy as np
import pytest

from vista_align.core import Hyperparameters, ObjectMap, project
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
    for a, b in zip(s1, s2):
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)
        assert a.dynamic == b.dynamic


def test_generate_scene_object_counts():
    scene = generate_scene(SceneSpec(36, (10.0, 10.0, 1.5), seed=0))
    assert len(scene) == 36
    assert all(not o.dynamic for o in scene)


def test_generate_scene_dynamic_flags():
    scene = generate_scene(SceneSpec(100, (10.0, 10.0, 2.0), n_dynamic=10,
                                     dynamic_velocity=1.0, seed=1))
    dynamic = [o for o in scene if o.dynamic]
    assert len(dynamic) == 10
    for o in dynamic:
        assert np.linalg.norm(o.velocity) == pytest.approx(1.0)
        assert o.velocity[2] == 0.0
    assert all(np.all(o.velocity == 0.0) for o in scene if not o.dynamic)


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
    for p in poses.values():
        assert p.translation[2] == 7.5


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
        assert np.linalg.norm(position - scene[lid].position) < 1e-6


def test_render_tracks_detections_in_image(intrinsics):
    scene = generate_scene(SceneSpec(50, (12.0, 12.0, 2.0), seed=3))
    tracks, _ = render_tracks(scene, nadir_trajectory(), intrinsics,
                              noise=2.0, seed=3)
    for t in tracks:
        for u, v in t.centroids:
            assert 0 <= u < intrinsics.width
            assert 0 <= v < intrinsics.height


def test_render_tracks_full_dropout(intrinsics):
    scene = generate_scene(SceneSpec(10, (10.0, 10.0, 1.0), seed=4))
    tracks, _ = render_tracks(scene, nadir_trajectory(), intrinsics,
                              dropout=1.0, seed=4)
    assert tracks == []


def test_render_tracks_duplicates_split_ids(intrinsics):
    scene = generate_scene(SceneSpec(30, (10.0, 10.0, 1.0), seed=5))
    base, _ = render_tracks(scene, nadir_trajectory(), intrinsics, seed=5)
    split, _ = render_tracks(scene, nadir_trajectory(), intrinsics,
                             duplicate_rate=1.0, seed=5)
    assert len(split) > len(base)
    ids = [t.track_id for t in split]
    assert len(ids) == len(set(ids))


def test_render_tracks_deterministic(intrinsics):
    scene = generate_scene(SceneSpec(15, (10.0, 10.0, 1.0), seed=6))
    t1, _ = render_tracks(scene, nadir_trajectory(), intrinsics, noise=0.5,
                          seed=6)
    t2, _ = render_tracks(scene, nadir_trajectory(), intrinsics, noise=0.5,
                          seed=6)
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert a.track_id == b.track_id
        assert a.frames == b.frames
        assert np.array_equal(a.centroids, b.centroids)


def test_perturb_frame_identity():
    scene = generate_scene(SceneSpec(10, (5.0, 5.0, 1.0), seed=7))
    m = ObjectMap("truth", range(len(scene)), [obj.position for obj in scene],
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
