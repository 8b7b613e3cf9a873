import math

import numpy as np
import pytest

from vista_align.core import (MAX_COORDINATE, CameraIntrinsics, Hyperparameters,
                              ObjectMap, Poses, RigidTransform, Tracks, project,
                              rotation_y, rotation_z, row_blocks, transform_angles)

from conftest import identity, random_rotation, rotation_x


def one_landmark_map(covariance):
    return ObjectMap("a", [0], np.zeros((1, 3)), [covariance])


def test_project_optical_axis_hits_principal_point():
    intr = CameraIntrinsics(100.0, 100.0, 0.0, 0.0, 200, 200)
    px = project(identity(), intr, [0.0, 0.0, 1.0])
    assert np.allclose(px, [0.0, 0.0])


def test_project_hand_evaluated_pinhole():
    intr = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 200, 200)
    px = project(identity(), intr, [0.5, 0.0, 1.0])
    assert np.allclose(px, [100.0, 50.0])


def test_project_behind_camera_is_nan(intrinsics):
    pose = identity()
    for point in ([0.0, 0.0, -1.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1e-6]):
        assert np.isnan(project(pose, intrinsics, point)).all()
    assert np.isfinite(project(pose, intrinsics, [0.0, 0.0, 2e-6])).all()


def test_project_rows_equal_single_points(intrinsics):
    rng = np.random.default_rng(12)
    pose = RigidTransform(random_rotation(rng), rng.normal(size=3))
    points = pose.translation + rng.normal(scale=5.0, size=(200, 3))
    rows = project(pose, intrinsics, points)
    assert rows.shape == (200, 2)
    assert np.isnan(rows).any() and np.isfinite(rows).any()
    for point, row in zip(points, rows):
        assert np.array_equal(project(pose, intrinsics, point), row,
                              equal_nan=True)


@pytest.mark.parametrize("m", [1, 3, 200])
def test_project_block_of_poses_equals_per_pose_calls(intrinsics, m):
    rng = np.random.default_rng(14)
    poses = Poses(range(9), [random_rotation(rng) for _ in range(9)],
                  rng.normal(size=(9, 3)))
    points = poses.translations[:, None] + rng.normal(scale=5.0, size=(9, m, 3))
    for lo, hi in ((0, 9), (2, 6), (4, 5)):
        block = project(poses[lo:hi], intrinsics, points[lo:hi])
        assert block.shape == (hi - lo, m, 2)
        for j, f in enumerate(range(lo, hi)):
            assert np.array_equal(block[j], project(poses[f], intrinsics, points[f]),
                                  equal_nan=True)
    block = project(poses[0:9], intrinsics, points)
    assert np.isnan(block).any() and np.isfinite(block).any()


def test_row_blocks_split_whole_units_at_the_row_budget():
    # units of 3, 1, 5, 0, 2, 9 and 1 rows
    starts = np.cumsum([0, 3, 1, 5, 0, 2, 9, 1])
    assert row_blocks(starts, 4) == [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]
    assert row_blocks(starts, 1) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                     (6, 7)]
    assert row_blocks(starts, 21) == [(0, 7)]
    assert row_blocks(np.zeros(1, dtype=int), 4) == []
    rng = np.random.default_rng(3)
    for size in (1, 7, 50):
        starts = np.cumsum([0, *rng.integers(0, 20, size=100)])
        blocks = row_blocks(starts, size)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == 100
        for (lo, hi), (nxt, _) in zip(blocks, blocks[1:] + [(None, None)]):
            assert starts[hi] - starts[lo] <= size or hi == lo + 1
            if nxt is not None and hi < 100:      # no room for the next unit
                assert starts[hi + 1] - starts[lo] > size


def test_project_applies_pose_inverse(intrinsics):
    # camera sitting at (0, 0, 5) looking along +z still sees (0, 0, 8)
    pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 5.0]))
    px = project(pose, intrinsics, [0.0, 0.0, 8.0])
    assert np.allclose(px, [intrinsics.cx, intrinsics.cy])


def test_project_unproject_round_trip(intrinsics):
    rng = np.random.default_rng(11)
    for _ in range(50):
        pose = RigidTransform(random_rotation(rng), rng.normal(size=3))
        pixel = rng.uniform([0, 0], [intrinsics.width, intrinsics.height])
        depth = rng.uniform(0.5, 30.0)
        p_cam = np.array([(pixel[0] - intrinsics.cx) / intrinsics.fx * depth,
                          (pixel[1] - intrinsics.cy) / intrinsics.fy * depth,
                          depth])
        point = pose.rotation @ p_cam + pose.translation
        assert np.allclose(project(pose, intrinsics, point), pixel, atol=1e-9)


def test_transform_angles_identity():
    assert transform_angles(identity()) == (0.0, 0.0, 0.0)


def test_transform_angles_pure_yaw():
    t = RigidTransform(rotation_z(30.0), np.zeros(3))
    assert np.allclose(transform_angles(t), (0.0, 0.0, 30.0))


def test_transform_angles_pure_roll_round_trip():
    t = RigidTransform(rotation_x(12.0), np.zeros(3))
    assert np.allclose(transform_angles(t), (12.0, 0.0, 0.0))


def test_transform_angles_zyx_composition_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        roll, pitch, yaw = rng.uniform([-89, -80, -179], [89, 80, 179])
        R = rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll)
        got = transform_angles(RigidTransform(R, np.zeros(3)))
        assert np.allclose(got, (roll, pitch, yaw), atol=1e-9)


def test_transform_angles_gimbal_lock_roll_zero():
    R = rotation_z(40.0) @ rotation_y(90.0) @ rotation_x(25.0)
    roll, pitch, yaw = transform_angles(RigidTransform(R, np.zeros(3)))
    assert roll == 0.0
    assert math.isclose(abs(pitch), 90.0, abs_tol=1e-9)
    # the full rotation must still be recoverable from (0, pitch, yaw)
    R2 = rotation_z(yaw) @ rotation_y(pitch)
    assert np.allclose(R2, R, atol=1e-9)


def test_rigid_transform_group_laws():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        r = t.compose(t.inverse())
        assert np.allclose(r.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(r.translation, 0.0, atol=1e-9)
        assert np.allclose(transform_angles(r), 0.0, atol=1e-9)


def test_rigid_transform_compose_order():
    t1 = RigidTransform(rotation_z(90.0), np.array([1.0, 0.0, 0.0]))
    t2 = RigidTransform(np.eye(3), np.array([0.0, 2.0, 0.0]))
    # t1.compose(t2) applies t2 first
    p = t1.compose(t2).apply([0.0, 0.0, 0.0])
    assert np.allclose(p, t1.apply(t2.apply([0.0, 0.0, 0.0])))
    assert np.allclose(p, [-1.0, 0.0, 0.0], atol=1e-12)


def test_rigid_transform_apply_batched():
    t = RigidTransform(rotation_z(90.0), np.array([0.0, 0.0, 1.0]))
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = t.apply(pts)
    assert np.allclose(out, [[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0]], atol=1e-12)


def test_pose_rejects_non_orthonormal_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))
    # the 1e-8 bound: ||R'R - I|| = 6e-9 passes, 2e-8 does not
    RigidTransform(np.diag([1.0 + 3e-9, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="orthonormal"):
        RigidTransform(np.diag([1.0 + 1e-8, 1.0, 1.0]), np.zeros(3))


def test_pose_rejects_reflection():
    R = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        RigidTransform(R, np.zeros(3))


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(-1.0, 100.0, 50.0, 50.0, 100, 100)
    with pytest.raises(ValueError):
        CameraIntrinsics(100.0, 100.0, 100.0, 50.0, 100, 100)


def test_track_requires_strictly_increasing_frames():
    with pytest.raises(ValueError, match="track 7: frames must be strictly"):
        Tracks([5, 7], [0, 2, 4], [0, 1, 2, 2], np.ones((4, 2)))
    # rows may fall between tracks
    assert len(Tracks([5, 7], [0, 2, 4], [2, 3, 0, 1], np.ones((4, 2)))) == 2


def test_track_centroids_are_one_checked_array():
    t = Tracks([4, 6], [0, 2, 2], [1, 3], [[1.0, 2.0], [3.0, 4.0]])
    assert t.ids == (4, 6) and len(t) == 2 and [len(r) for r in t] == [2, 0]
    assert list(t.pose_rows) == [1, 3]
    for column in (t.starts, t.pose_rows, t.centroids):
        assert not column.flags.writeable
    assert t.centroids.shape == (2, 2)
    assert Tracks([5], [0, 0], [], np.zeros((0, 2))).centroids.shape == (0, 2)
    for starts, rows, centroids in [([0, 2], [1, 3], [1.0, 2.0, 3.0, 4.0]),
                                    ([0, 2], [1, 3], [[1.0, 2.0]]),
                                    ([0, 1], [1, 3], [[1.0, 2.0]] * 2),
                                    ([0, 0], [], [])]:
        with pytest.raises(ValueError, match="shape"):
            Tracks([0], starts, rows, centroids)
    with pytest.raises(ValueError, match="non-finite"):
        Tracks([0], [0, 1], [1], [[np.nan, 2.0]])
    with pytest.raises(ValueError, match="rise from 0"):
        Tracks([0, 1], [0, 2, 1], [0], np.ones((1, 2)))
    with pytest.raises(ValueError, match="rows be >= 0"):
        Tracks([0], [0, 1], [-1], np.ones((1, 2)))


def test_inputs_hold_to_the_coordinate_range():
    # the range's ends are accepted; past them, a field is named before any
    # product of it can overflow
    R = np.stack([np.eye(3)] * 2)
    Poses([0, 1], R, [[MAX_COORDINATE, -MAX_COORDINATE, 0.0], [0.0, 0.0, 8.0]])
    with pytest.raises(ValueError, match="frame 1: translation must lie within"):
        Poses([0, 1], R, [[0.0, 0.0, 8.0], [MAX_COORDINATE * 1.5, 0.0, 8.0]])
    R[1, 0, 0] = 1e308
    with pytest.raises(ValueError, match="frame 1: rotation is not orthonormal"):
        Poses([0, 1], R, np.zeros((2, 3)))
    for fx in (1.0 / MAX_COORDINATE, MAX_COORDINATE):
        CameraIntrinsics(fx, fx, 0.0, 0.0, int(MAX_COORDINATE), 1)
    for fx, width in ((1e-320, 100), (1e10, 100), (1.0, 10 ** 10)):
        with pytest.raises(ValueError, match="fx must lie|width must be"):
            CameraIntrinsics(fx, 1.0, 0.0, 0.0, width, 1)


def test_pose_table_checks_rows_in_order_then_sorts_by_frame():
    R = np.stack([rotation_z(10.0 * k) for k in range(4)])
    t = np.arange(12.0).reshape(4, 3)
    poses = Poses([7, 2, 5, 0], R, t)
    assert poses.frames == (0, 2, 5, 7) and len(poses) == 4
    assert np.array_equal(poses.rotations, R[[3, 1, 2, 0]])
    assert np.array_equal(poses[1].translation, t[1])
    assert not poses.rotations.flags.writeable
    assert len(Poses([], np.zeros((0, 3, 3)), np.zeros((0, 3)))) == 0
    bad = R.copy()
    bad[2] *= 1.001
    bad[3, 0, 0] = np.inf
    # the first row given is named, not the first frame
    with pytest.raises(ValueError, match="pose at frame 5: rotation is not ortho"):
        Poses([7, 2, 5, 0], bad, t)
    bad[2] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="frame 5: rotation determinant"):
        Poses([7, 2, 5, 0], bad, t)
    t[1, 2] = np.nan
    with pytest.raises(ValueError, match="frame 2: translation contains non-finite"):
        Poses([7, 2, 5, 0], R, t)
    with pytest.raises(ValueError, match="distinct"):
        Poses([1, 1], R[:2], t[:2])
    with pytest.raises(ValueError, match="reshape"):
        Poses([1], R[:2], t[:2])


def test_landmark_covariance_validation():
    C = np.eye(3)
    C[0, 1] = 0.5
    with pytest.raises(ValueError, match="landmark 0 must be symmetric"):
        one_landmark_map(C)
    with pytest.raises(ValueError, match="landmark 0 must be positive"):
        one_landmark_map(-np.eye(3))
    # the first bad landmark is named; an asymmetry under 1e-12 passes
    with pytest.raises(ValueError, match="landmark 5 must be symmetric"):
        ObjectMap("a", [2, 5, 9], np.zeros((3, 3)), [np.eye(3), C, -np.eye(3)])
    C[0, 1] = 1e-13
    one_landmark_map(C)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
def test_landmark_psd_tolerance_is_relative(scale):
    # a rank-2 covariance with its null direction pushed below zero
    R = random_rotation(np.random.default_rng(3))
    C = scale * R @ np.diag([1.0, 0.3, 0.0]) @ R.T
    C = (C + C.T) / 2
    null = np.outer(R[:, 2], R[:, 2])
    null = (null + null.T) / 2
    peak = np.abs(C).max()
    one_landmark_map(C - 5e-9 * peak * null)       # 9-digit rounding
    with pytest.raises(ValueError, match="positive semi-definite"):
        one_landmark_map(C - 1e-6 * peak * null)


def test_object_map_unique_ids():
    with pytest.raises(ValueError, match="unique"):
        ObjectMap("a", [1, 1], np.zeros((2, 3)), [np.eye(3)] * 2)


def test_object_map_arrays_are_checked():
    m = ObjectMap("a", [4, 2], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [np.eye(3)] * 2)
    assert m.ids == (4, 2) and len(m) == 2 and m.frame_label == "odom"
    assert m.positions.shape == (2, 3) and m.covariances.shape == (2, 3, 3)
    empty = ObjectMap("e", [], np.zeros((0, 3)), np.zeros((0, 3, 3)))
    assert len(empty) == 0 and empty.positions.shape == (0, 3)
    for positions, covariances in [([1.0, 2.0, 3.0], [np.eye(3)]),
                                   ([[1.0, 2.0, 3.0]], np.eye(3)), ([], [])]:
        with pytest.raises(ValueError, match="shape"):
            ObjectMap("a", [0], positions, covariances)
    with pytest.raises(ValueError, match="non-finite"):
        ObjectMap("a", [0], [[np.nan, 0.0, 0.0]], [np.eye(3)])


def test_object_map_select_is_the_constructors_map_without_its_checks(monkeypatch):
    rng = np.random.default_rng(4)
    A = rng.normal(size=(40, 3, 3))
    m = ObjectMap("b", rng.permutation(100)[:40], rng.normal(size=(40, 3)),
                  A @ A.transpose(0, 2, 1), frame_label="local")
    keeps = [rng.uniform(size=40) < 0.8, np.ones(40, bool), np.zeros(40, bool)]
    wants = [ObjectMap(m.agent_id, [i for i, k in zip(m.ids, keep) if k],
                       m.positions[keep], m.covariances[keep], m.frame_label)
             for keep in keeps]

    def eigvalsh(*args, **kwargs):
        raise AssertionError("select re-checked a covariance")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for keep, want in zip(keeps, wants):
        got = m.select(keep)
        assert type(got) is ObjectMap
        assert (got.agent_id, got.ids, got.frame_label) == \
            (want.agent_id, want.ids, want.frame_label)
        for a, b in [(got.positions, want.positions),
                     (got.covariances, want.covariances)]:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes() and not a.flags.writeable
    assert m.positions.flags.writeable is False     # the source map is untouched


def test_core_types_are_immutable():
    pose = RigidTransform(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        pose.rotation[0, 0] = 2.0
    m = one_landmark_map(np.eye(3))
    with pytest.raises(ValueError):
        m.positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        m.covariances[0, 0, 0] = 2.0
    poses = Poses([0], np.eye(3)[None], np.zeros((1, 3)))
    with pytest.raises(ValueError):
        poses[0].rotation[0, 0] = 2.0


def test_hyperparameters_defaults():
    p = Hyperparameters()
    assert p.n_min == 3
    assert p.omega_percentile == 95.0
    assert p.window == 2.0 and p.overlap == 1.0
    assert p.n_max == 50
    assert p.sigma == 0.05 and p.epsilon == 0.1 and p.gamma == 0.1
    assert p.s_max == 4
    assert p.theta_overlap == 0.667
    assert p.theta_rp == 10.0 and p.theta_yaw == 30.0 and p.t_max == 1.5


def test_hyperparameters_validation():
    with pytest.raises(ValueError):
        Hyperparameters(sigma=0.2)          # epsilon < sigma
    with pytest.raises(ValueError):
        Hyperparameters(overlap=3.0)        # overlap > window
    with pytest.raises(ValueError, match="n_max must be > s_max"):
        Hyperparameters(n_max=4)            # n_max <= s_max
    with pytest.raises(ValueError):
        Hyperparameters(n_min=0)
    assert Hyperparameters.int_fields() == ["n_min", "n_max", "s_max"]
    for name, value in (("n_max", 10.5), ("s_max", 4.5), ("n_min", 3.0),
                        ("s_max", True)):
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            Hyperparameters(**{name: value})
    assert Hyperparameters(n_max=np.int64(10)).n_max == 10
    with pytest.raises(ValueError):
        Hyperparameters(theta_overlap=1.5)
