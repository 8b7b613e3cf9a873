import tracemalloc
import warnings

import numpy as np
import pytest

from vista_align import formats
from vista_align import triangulation as tri
from vista_align.core import Hyperparameters, RigidTransform, project
from vista_align.simulation import (SceneSpec, TrajectorySpec, generate_scene,
                                    render_tracks)

from conftest import (looking_at_origin_pose, per_track, per_track_build_map,
                      pose_table, random_rotation, reprojection_jacobian,
                      track_table)


def make_track(point, poses, intrinsics, track_id=0, noise=0.0, rng=None,
               motion=None):
    """Forward-project `point` (optionally moving by `motion` per frame) into
    every row of `poses`, as a (track_id, rows, centroids) triple."""
    point = np.asarray(point, dtype=float)
    pixels = []
    for f in range(len(poses)):
        p = point if motion is None else point + np.asarray(motion) * f
        px = project(poses[f], intrinsics, p)
        if noise > 0:
            px = px + rng.normal(0.0, noise, size=2)
        pixels.append(px)
    return track_id, range(len(poses)), pixels


def ring_poses(target, n=5, radius=6.0):
    """Cameras on a ring around `target`, all looking at it."""
    return pose_table(ring_transforms(target, n, radius))


def ring_transforms(target, n=5, radius=6.0, first=0):
    """ring_poses as a {frame: RigidTransform} dict from frame `first`."""
    target = np.asarray(target, dtype=float)
    poses = {}
    for f in range(n):
        ang = 2.0 * np.pi * f / n
        offset = radius * np.array([np.cos(ang), np.sin(ang), 0.8])
        # shift the look-at ring from the origin to the target
        poses[first + f] = RigidTransform(looking_at_origin_pose(offset).rotation,
                                          target + offset)
    return poses


def solve(track, poses, intrinsics, guess=None):
    """initial_guess then refine of one track: (position, covariance, status)."""
    tracks = track_table([track])
    if guess is None:
        guesses, degenerate = tri.initial_guess(tracks, poses, intrinsics)
        assert not degenerate[0]
    else:
        guesses = np.reshape(guess, (1, 3))
    positions, covariances, status = tri.refine(tracks, poses, intrinsics, guesses)
    return positions[0], covariances[0], status[0]


def test_filter_tracks_strict_inequality():
    tracks = track_table([(0, range(3), np.ones((3, 2))),
                          (1, range(4), np.ones((4, 2)))])
    kept = tri.filter_tracks(tracks, 3)
    assert kept.ids == (1,) and list(kept.starts) == [0, 4]


def test_filter_tracks_empty_and_order():
    assert tri.filter_tracks(track_table([]), 3).ids == ()
    tracks = track_table([(i, range(5), np.full((5, 2), i)) for i in range(4)])
    kept = tri.filter_tracks(tracks, 3)
    assert kept.ids == tracks.ids
    assert np.array_equal(kept.centroids, tracks.centroids)


def test_filter_tracks_rejects_bad_n_min():
    with pytest.raises(ValueError):
        tri.filter_tracks(track_table([]), 0)


def test_initial_guess_two_orthogonal_rays(intrinsics):
    target = np.array([1.0, 2.0, 5.0])
    poses = {0: looking_at_origin_pose([8.0, 2.0, 5.0]),
             1: looking_at_origin_pose([1.0, -7.0, 5.0])}
    # re-center both cameras so their optical axes cross at the target
    poses = pose_table({f: RigidTransform(p.rotation, p.translation + target)
                        for f, p in poses.items()})
    tracks = track_table([make_track(target, poses, intrinsics)])
    guesses, degenerate = tri.initial_guess(tracks, poses, intrinsics)
    assert np.allclose(guesses[0], target, atol=1e-9) and not degenerate[0]


def test_initial_guess_five_poses(intrinsics):
    target = np.array([3.0, -1.0, 8.0])
    poses = ring_poses(target)
    tracks = track_table([make_track(target, poses, intrinsics)])
    assert np.allclose(tri.initial_guess(tracks, poses, intrinsics)[0][0], target,
                       atol=1e-6)


def test_initial_guess_parallel_rays_degenerate(intrinsics):
    pose = looking_at_origin_pose([5.0, 0.0, 3.0])
    poses = pose_table({0: pose, 1: pose})
    tracks = track_table([(0, [0, 1], [[320.0, 240.0], [320.0, 240.0]])])
    guesses, degenerate = tri.initial_guess(tracks, poses, intrinsics)
    assert degenerate[0] and np.isnan(guesses[0]).all()


def test_refine_zero_noise_recovers_point(intrinsics):
    target = np.array([3.0, -1.0, 8.0])
    poses = ring_poses(target)
    position, covariance, status = solve(make_track(target, poses, intrinsics),
                                         poses, intrinsics)
    assert status == tri.KEPT
    assert np.linalg.norm(position - target) < 1e-6
    assert np.trace(covariance) < 1e-10


def test_refine_converges_from_offset_guess(intrinsics):
    target = np.array([0.5, 0.25, 2.0])
    poses = ring_poses(target, n=8, radius=4.0)
    position, _, status = solve(make_track(target, poses, intrinsics), poses,
                                intrinsics, target + [0.8, -0.5, 0.6])
    assert status == tri.KEPT
    assert np.linalg.norm(position - target) < 1e-6


def test_refine_dynamic_object_diverges(intrinsics):
    # object moving 1 m/frame seen by 6 poses: no static point fits
    target = np.array([0.0, 0.0, 0.0])
    poses = ring_poses(target, n=6, radius=8.0)
    track = make_track(target, poses, intrinsics, motion=[1.0, 0.0, 0.0])
    _, covariance, status = solve(track, poses, intrinsics)
    assert status != tri.KEPT and np.isnan(covariance).all()


def test_refine_rejects_non_finite_guess(intrinsics):
    poses = ring_poses([0.0, 0.0, 0.0])
    track = make_track([0.0, 0.0, 0.0], poses, intrinsics)
    with pytest.raises(ValueError):
        solve(track, poses, intrinsics, [np.nan, 0.0, 0.0])


def test_refine_covariance_is_psd_and_scales_with_noise(intrinsics):
    target = np.array([0.0, 0.5, 1.0])
    poses = ring_poses(target, n=20, radius=5.0)
    rng = np.random.default_rng(42)
    track = make_track(target, poses, intrinsics, noise=1.0, rng=rng)
    _, covariance, status = solve(track, poses, intrinsics)
    assert status == tri.KEPT
    w = np.linalg.eigvalsh(covariance)
    assert w.min() >= 0.0
    assert 1e-8 < np.trace(covariance) < 1.0


def test_steps_solve_each_system_and_mark_the_singular_ones():
    H = np.stack([2.0 * np.eye(3), np.diag([1.0, 1.0, 0.0]), np.eye(3)])
    g = np.arange(9.0).reshape(3, 3)
    steps, singular = tri._steps(H, g)
    assert singular.tolist() == [False, True, False]
    assert np.array_equal(steps, [-g[0] / 2.0, np.zeros(3), -g[2]])


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
        J = reprojection_jacobian(pose, intrinsics, point)
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
    short = (10, range(3), [[320.0, 240.0]] * 3)
    dynamic = make_track([0.0, 0.0, 0.0], poses, intrinsics, track_id=11,
                         motion=[1.0, 0.0, 0.0])
    obj_map, stats = tri.build_map(track_table(tracks + [short, dynamic]), poses,
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
    m1, _ = tri.build_map(track_table(tracks), poses, intrinsics, params, "a")
    m2, _ = tri.build_map(track_table(tracks[::-1]), poses, intrinsics, params, "a")
    by_id_1 = dict(zip(m1.ids, m1.positions))
    by_id_2 = dict(zip(m2.ids, m2.positions))
    assert set(by_id_1) == set(by_id_2)
    for i in by_id_1:
        assert np.allclose(by_id_1[i], by_id_2[i], atol=1e-12)


def test_build_map_empty_warns(intrinsics):
    # an empty map is a result, not a warning: BuildStats records it
    poses = ring_poses([0.0, 0.0, 0.0], n=4)
    short = track_table([(i, range(2), [[320.0, 240.0]] * 2) for i in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obj_map, stats = tri.build_map(short, poses, intrinsics,
                                       Hyperparameters(), "a")
    assert len(obj_map) == 0 and stats.n_landmarks == 0
    assert stats.n_discarded_short == 3


def rendered_tracks(intrinsics, pitch):
    """Noisy tracks of static and moving objects, long enough to triangulate."""
    scene = generate_scene(SceneSpec(40, (10.0, 10.0, 1.5), n_dynamic=8,
                                     dynamic_velocity=0.5, seed=4))
    trajectory = TrajectorySpec([(1.0, 1.0, 0.0), (1.0, 9.0, 0.0),
                                 (5.0, 9.0, 0.0), (5.0, 1.0, 0.0)],
                                frames=30, camera_pitch=pitch, altitude=8.0)
    tracks, poses = render_tracks(scene, trajectory, intrinsics, noise=0.5,
                                  seed=4)
    return tri.filter_tracks(tracks, 3), poses


def reference_initial_guess(track, poses, intrinsics):
    """initial_guess one ray at a time, on `per_track`'s inputs."""
    A, b = np.zeros((3, 3)), np.zeros(3)
    for frame, (u, v) in zip(track.frames, track.centroids):
        pose = poses[frame]
        d = pose.rotation @ np.array([(u - intrinsics.cx) / intrinsics.fx,
                                      (v - intrinsics.cy) / intrinsics.fy, 1.0])
        d = d / np.linalg.norm(d)
        P = np.eye(3) - np.outer(d, d)
        A += P
        b += P @ pose.translation
    return np.linalg.solve(A, b)


def reference_residuals(point, track, poses, intrinsics):
    """The residuals, Jacobian rows and cost of one track, one observation at
    a time; None when every observation is behind the camera."""
    rows_r, rows_j, n_behind = [], [], 0
    for frame, centroid in zip(track.frames, track.centroids):
        R, t = poses[frame].rotation, poses[frame].translation
        x, y, z = R.T @ (point - t)
        if z <= 1e-6:
            n_behind += 1
            continue
        rows_r.append([intrinsics.fx * x / z + intrinsics.cx - centroid[0],
                       intrinsics.fy * y / z + intrinsics.cy - centroid[1]])
        d_uv_d_cam = np.array([[intrinsics.fx / z, 0.0, -intrinsics.fx * x / z ** 2],
                               [0.0, intrinsics.fy / z, -intrinsics.fy * y / z ** 2]])
        rows_j.append(d_uv_d_cam @ R.T)
    if n_behind == len(track):
        return None
    r = np.array(rows_r).ravel()
    return r, np.concatenate(rows_j, axis=0), float(r @ r) + 1e6 * n_behind


@pytest.mark.parametrize("pitch", [0.0, 45.0])
def test_initial_guess_equals_per_ray_loop_exactly(intrinsics, pitch):
    tracks, poses = rendered_tracks(intrinsics, pitch)
    assert len(tracks) > 20
    guesses, degenerate = tri.initial_guess(tracks, poses, intrinsics)
    assert not degenerate.any()
    for guess, track in zip(guesses, per_track(tracks, poses)[0]):
        assert np.array_equal(guess, reference_initial_guess(
            track, per_track(tracks, poses)[1], intrinsics))


@pytest.mark.parametrize("pitch", [0.0, 45.0])
def test_residuals_equal_per_observation_loop_exactly(intrinsics, pitch):
    # _residuals gives every observation's rows (zero behind the camera);
    # _normal_equations gives the track's cost and whether all are behind
    tracks, poses = rendered_tracks(intrinsics, pitch)
    rng = np.random.default_rng(5)
    paths = {"front": 0, "partly behind": 0, "behind all": 0}
    by_frame = per_track(tracks, poses)[1]
    for track, r in zip(per_track(tracks, poses)[0], tracks):
        R = poses.rotations[tracks.pose_rows[r]]
        t = poses.translations[tracks.pose_rows[r]]
        m = len(track)
        guess = reference_initial_guess(track, by_frame, intrinsics)
        near_and_far = guess + rng.normal(scale=[[[0.5]], [[6.0]]], size=(2, 15, 3))
        for point in [guess, *near_and_far.reshape(-1, 3), guess + [0.0, 0.0, 30.0]]:
            expected = reference_residuals(point, track, by_frame, intrinsics)
            res, J, front = tri._residuals(np.tile(point, (m, 1)), R, t,
                                           track.centroids, intrinsics)
            _, _, cost, behind = tri._normal_equations(
                point[None], poses, tracks.pose_rows[r], track.centroids, np.array([m]),
                intrinsics)
            assert np.array_equal(res[~front], np.zeros((m - front.sum(), 2)))
            assert np.array_equal(J[~front], np.zeros((m - front.sum(), 2, 3)))
            if expected is None:
                paths["behind all"] += 1
                assert behind[0] and not front.any()
                continue
            paths["front" if expected[2] < 1e6 else "partly behind"] += 1
            assert not behind[0]
            assert np.array_equal(res[front].ravel(), expected[0])
            assert np.array_equal(J[front].reshape(-1, 3), expected[1])
            assert cost[0] == expected[2]
    assert min(paths.values()) > 0, paths


def reason_tracks(intrinsics):
    """One hand-made track for each reason a track is discarded, and one
    kept, on one pose table: (tracks, poses, {track_id: status})."""
    transforms = ring_transforms([0.0, 0.0, 0.0], n=4, radius=3.0)
    transforms.update(ring_transforms([0.0, 0.0, 0.0], n=6, radius=3.0, first=4))
    pose = looking_at_origin_pose([5.0, 0.0, 3.0])
    transforms.update({f: pose for f in range(10, 14)})
    poses = pose_table(transforms)
    four, six = range(4), range(4, 10)

    def moving(track_id, rows, motion):
        return track_id, rows, [project(poses[k], intrinsics,
                                        np.asarray(motion) * (k - rows[0]))
                                for k in rows]

    tracks = [moving(0, four, [0.0, 0.0, 0.0]),
              (1, range(10, 14), [[320.0, 240.0]] * 4),     # parallel rays
              moving(2, four, [-0.5, 0.0, 2.0]),
              moving(3, six, [2.0, 0.0, -1.0]),
              moving(4, four, [-2.0, 0.0, 0.0]),
              moving(5, four, [-2.0, 0.0, -2.0])]
    return track_table(tracks), poses, {
        0: tri.KEPT, 1: tri.DEGENERATE, 2: tri.BEHIND, 3: tri.ITERATION_CAP,
        4: tri.COST_STALL, 5: tri.RESIDUAL_FLOOR}


def test_build_map_counts_each_discard_reason(intrinsics):
    tracks, poses, expected = reason_tracks(intrinsics)
    obj_map, stats = tri.build_map(tracks, poses, intrinsics, Hyperparameters(), "a")
    assert obj_map.ids == (0,)
    assert (stats.n_landmarks, stats.n_discarded_short) == (1, 0)
    assert stats.discarded == dict.fromkeys(tri.REASONS, 1)
    assert stats.n_discarded_diverged == 5
    _, status = per_track_build_map(*per_track(tracks, poses), intrinsics,
                                    Hyperparameters(), "a")
    assert status == expected


def reference_cases(intrinsics):
    """(tracks, poses) cases: rendered nadir and 45 deg tracks with moving
    objects, hand-made tracks behind the camera or with parallel rays, and
    tracks all too short to triangulate."""
    cases = {"nadir": rendered_tracks(intrinsics, 0.0),
             "45deg": rendered_tracks(intrinsics, 45.0)}
    tracks, poses, _ = reason_tracks(intrinsics)
    cases["behind camera"] = tracks.select(np.isin(tracks.ids, [0, 2])), poses
    cases["parallel rays"] = tracks.select(np.isin(tracks.ids, [0, 1])), poses
    cases["all short"] = (track_table([(i, range(3), [[320.0, 240.0]] * 3)
                                       for i in range(3)]), poses)
    return cases


@pytest.mark.parametrize("case", ["nadir", "45deg", "behind camera",
                                  "parallel rays", "all short"])
def test_build_map_equals_per_track_reference(intrinsics, case):
    tracks, poses = reference_cases(intrinsics)[case]
    params = Hyperparameters()
    got, stats = tri.build_map(tracks, poses, intrinsics, params, "a")
    want, status = per_track_build_map(*per_track(tracks, poses), intrinsics,
                                       params, "a")
    assert got.ids == want.ids
    counts = np.bincount(list(status.values()), minlength=6).tolist()
    assert [stats.n_landmarks, *stats.discarded.values()] == counts
    assert stats.n_discarded_short == len(tracks) - len(status)
    assert np.abs(got.positions - want.positions).max(initial=0.0) <= 1e-9
    assert [formats._floats(p) for p in got.positions] \
        == [formats._floats(p) for p in want.positions]


def blocks_cases(intrinsics):
    """(tracks, poses) cases for the block size: a 45 deg scene with moving
    objects and split tracks, some too short, all in one table; the
    hand-made tracks, one discarded for each reason; and tracks all short."""
    scene = generate_scene(SceneSpec(60, (10.0, 10.0, 1.5), n_dynamic=12,
                                     dynamic_velocity=0.5, seed=8))
    trajectory = TrajectorySpec([(1.0, 1.0, 0.0), (1.0, 9.0, 0.0),
                                 (5.0, 9.0, 0.0), (5.0, 1.0, 0.0)],
                                frames=200, camera_pitch=45.0, altitude=8.0)
    tracks, poses, _ = reason_tracks(intrinsics)
    return {"rendered": render_tracks(scene, trajectory, intrinsics, noise=0.5,
                                      duplicate_rate=0.3, seed=8),
            "reasons": (tracks, poses),
            "all short": reference_cases(intrinsics)["all short"]}


@pytest.mark.parametrize("case", ["rendered", "reasons", "all short"])
def test_build_map_is_the_same_at_any_block_size(intrinsics, monkeypatch, case):
    tracks, poses = blocks_cases(intrinsics)[case]
    params = Hyperparameters()
    n = len(tracks.pose_rows)
    results = []
    for rows in (1, max(1, n // 5), tri.BATCH_ROWS):
        monkeypatch.setattr(tri, "BATCH_ROWS", rows)
        obj_map, stats = tri.build_map(tracks, poses, intrinsics, params, "a")
        results.append((formats.map_to_json(obj_map), stats))
    assert results[1:] == results[:1] * 2
    stats = results[0][1]
    if case == "rendered":      # kept, short and moving tracks across blocks
        assert n > tri.BATCH_ROWS
        assert stats.n_landmarks and stats.n_discarded_short
        assert stats.n_discarded_diverged
    elif case == "reasons":
        assert stats.discarded == dict.fromkeys(tri.REASONS, 1)


def test_build_map_peak_memory_does_not_grow_with_detections(intrinsics):
    # the same 36 objects over 250 and 1,000 frames: about 5,000 and 20,000
    # detections, and a peak set by one block of tracks
    scene = generate_scene(SceneSpec(36, (10.0, 10.0, 1.5), seed=2))
    peaks = []
    for frames in (250, 1000):
        trajectory = TrajectorySpec([(1.0, 1.0, 0.0), (1.0, 9.0, 0.0),
                                     (5.0, 9.0, 0.0), (5.0, 1.0, 0.0)],
                                    frames=frames, altitude=8.0)
        tracks, poses = render_tracks(scene, trajectory, intrinsics, noise=0.3,
                                      seed=1)
        tracemalloc.start()
        try:
            tri.build_map(tracks, poses, intrinsics, Hyperparameters(), "a")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(tracks.pose_rows) > 4 * tri.BATCH_ROWS
    assert peaks[1] < 1.2 * peaks[0]
