"""Shared geometric types, hyperparameters, and camera primitives.

Conventions used throughout the package:

* A pose is the body-to-odometry transform of one frame, a row of `Poses`;
  projecting a world point applies its inverse.
* The camera is an ideal pinhole (zero distortion). Camera frame = body frame;
  any camera/IMU extrinsic must be folded into the poses upstream.
* Euler angles are Z-Y-X (yaw about gravity-aligned +z, then pitch, then roll),
  degrees at API boundaries, radians internally.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

# Rows the front end works on at once, a row being one detection or one
# frame x object projection: `render_tracks` projects blocks of frames and
# `build_map` triangulates blocks of whole tracks of at most BATCH_ROWS rows.
# A row costs about 360 bytes of triangulation's working arrays and under 250
# of rendering's (tracemalloc, 2,048-16,384 rows), so a block's stay near
# 1.5 MB. Smaller blocks cost time: on a 17,594-detection track file
# `build_map` took 36 ms at 2,048 rows, 31 ms at 4,096 and 28 ms in one block.
BATCH_ROWS = 4096

# The finite range of input quantities. Coordinates and lengths (m) and pixel
# quantities (px) lie within +-MAX_COORDINATE, map covariance entries (m^2)
# within MAX_COORDINATE^2, and focal lengths are at least 1 / MAX_COORDINATE
# px. So every square, product and ratio the pipeline forms of them, and sums
# of millions of those, stay far inside the float range: no step overflows.
MAX_COORDINATE = 1e9


def row_blocks(starts, size):
    """Split units 0..n-1, unit u owning the rows starts[u]:starts[u + 1],
    into consecutive runs of at most `size` rows, as (lo, hi) unit ranges in
    order; a unit of more rows is a run of its own."""
    blocks, lo = [], 0
    while lo < len(starts) - 1:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + size, "right")) - 1)
        blocks.append((lo, hi))
        lo = hi
    return blocks


class DegenerateGeometryError(Exception):
    """Input geometry is rank-deficient (parallel rays, collinear points, ...)."""


class InputError(Exception):
    """Malformed input file or config; the message names the offending field."""


def _as_readonly(a, shape, name):
    arr = np.array(a, dtype=float)
    if arr.shape != shape:
        raise ValueError("%s must have shape %s, got %s" % (name, shape, arr.shape))
    if not np.all(np.isfinite(arr)):
        raise ValueError("%s contains non-finite values" % name)
    arr.flags.writeable = False
    return arr


def check_rotation(R, tol):
    # an entry past 1 + tol puts its column's norm, and so ||R'R - I||, past
    # tol; rejected before R'R, which a huge entry overflows
    big = np.abs(R).max()
    if big > 1.0 + tol:
        raise ValueError("rotation is not orthonormal (an entry of magnitude %g)" % big)
    err = np.linalg.norm(R.T @ R - np.eye(3))
    if err >= tol:
        raise ValueError("rotation is not orthonormal (||R'R - I|| = %g)" % err)
    if abs(np.linalg.det(R) - 1.0) >= tol:
        raise ValueError("rotation determinant is not +1")


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy"):
            if not 1.0 / MAX_COORDINATE <= getattr(self, name) <= MAX_COORDINATE:
                raise ValueError("%s must lie in [%g, %g] px"
                                 % (name, 1.0 / MAX_COORDINATE, MAX_COORDINATE))
        for name in ("width", "height"):
            if getattr(self, name) > MAX_COORDINATE:
                raise ValueError("%s must be at most %g px" % (name, MAX_COORDINATE))
        if not (0 <= self.cx < self.width):
            raise ValueError("cx must lie within [0, width)")
        if not (0 <= self.cy < self.height):
            raise ValueError("cy must lie within [0, height)")


class Pose(NamedTuple):
    """One frame's camera, a row of `Poses`, or a block of rows' cameras."""

    rotation: np.ndarray
    translation: np.ndarray


@dataclass(frozen=True)
class Poses:
    """Camera poses by frame: row k holds frame frames[k] (distinct ints),
    its body-to-odometry rotations[k] (F, 3, 3) and translations[k] (F, 3);
    poses[k] is row k's `Pose` and poses[lo:hi] the block's. Each row must
    pass `check_pose`, made for all rows at once; the rows are then sorted
    by frame."""

    frames: tuple
    rotations: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        frames = tuple(self.frames)
        if len(set(frames)) != len(frames):
            raise ValueError("pose frames must be distinct")
        R = np.array(self.rotations, dtype=float).reshape(len(frames), 3, 3)
        t = np.array(self.translations, dtype=float).reshape(len(frames), 3)
        # NaN fails both tests; an entry past 2 fails check_rotation anyway
        sane = ((np.abs(R) <= 2.0).all(axis=(1, 2))
                & (np.abs(t) <= MAX_COORDINATE).all(axis=1))
        R1 = np.where(sane[:, None, None], R, np.eye(3))
        err = np.linalg.norm(np.swapaxes(R1, 1, 2) @ R1 - np.eye(3), axis=(1, 2))
        for k in np.flatnonzero(~sane | (err >= 1e-8)
                                | (np.abs(np.linalg.det(R1) - 1.0) >= 1e-8)):
            try:                        # check_pose names the fault
                check_pose(R[k], t[k])
            except ValueError as exc:
                raise ValueError("pose at frame %d: %s" % (frames[k], exc)) from exc
        order = sorted(range(len(frames)), key=frames.__getitem__)
        R, t = R[order], t[order]
        R.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "frames", tuple(frames[k] for k in order))
        object.__setattr__(self, "rotations", R)
        object.__setattr__(self, "translations", t)

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, k):
        return Pose(self.rotations[k], self.translations[k])


@dataclass(frozen=True)
class Tracks:
    """Detection tracks as one table: track k, with id ids[k], owns the
    detections starts[k]:starts[k + 1]. Detection j is the pixel centroids[j]
    (an (N, 2) array) seen in the pose-table row pose_rows[j], and a track's
    rows strictly increase. Iterating gives each track's detection range."""

    ids: tuple
    starts: np.ndarray
    pose_rows: np.ndarray
    centroids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        starts = np.array(self.starts, dtype=np.intp).reshape(len(self.ids) + 1)
        rows = np.array(self.pose_rows, dtype=np.intp).reshape(starts[-1])
        starts.flags.writeable = rows.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "pose_rows", rows)
        object.__setattr__(self, "centroids", _as_readonly(
            self.centroids, (len(rows), 2), "centroids"))
        lengths = np.diff(starts)
        if starts[0] != 0 or (lengths < 0).any() or (rows < 0).any():
            raise ValueError("starts must rise from 0 and pose rows be >= 0")
        track = np.repeat(np.arange(len(self.ids)), lengths)
        stuck = (np.diff(rows) <= 0) & (track[1:] == track[:-1])
        if stuck.any():
            raise ValueError("track %d: frames must be strictly increasing"
                             % self.ids[track[np.argmax(stuck)]])

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return map(range, self.starts[:-1].tolist(), self.starts[1:].tolist())

    def block(self, lo, hi):
        """Tracks lo..hi-1, as a table of their own."""
        a, b = self.starts[lo], self.starts[hi]
        return Tracks(self.ids[lo:hi], self.starts[lo:hi + 1] - a,
                      self.pose_rows[a:b], self.centroids[a:b])

    def select(self, keep):
        """The tracks where the (n,) bool mask `keep` holds, in order."""
        detections = np.repeat(keep, np.diff(self.starts))
        return Tracks([i for i, k in zip(self.ids, keep) if k],
                      np.cumsum([0, *np.diff(self.starts)[keep]]),
                      self.pose_rows[detections], self.centroids[detections])


@dataclass(frozen=True)
class ObjectMap:
    """All landmarks estimated by one agent, in its odometry frame: landmark
    ids[k] sits at positions[k], an (m, 3) array, with the 3x3 covariance
    covariances[k], an (m, 3, 3) array."""

    agent_id: str
    ids: tuple
    positions: np.ndarray
    covariances: np.ndarray
    frame_label: str = "odom"

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        m = len(self.ids)
        object.__setattr__(self, "positions", _as_readonly(
            self.positions, (m, 3), "positions"))
        object.__setattr__(self, "covariances", _as_readonly(
            self.covariances, (m, 3, 3), "covariances"))
        if len(set(self.ids)) != m:
            raise ValueError("landmark ids must be unique within a map")
        C = self.covariances
        # %.9g map rounding moves an eigenvalue by at most 1.5e-8 of the
        # largest entry; a saved rank-deficient covariance must load again.
        psd = (np.linalg.eigvalsh(C).min(axis=1)
               >= -np.maximum(1e-12, 2e-8 * np.abs(C).max(axis=(1, 2))))
        asym = (C != C.transpose(0, 2, 1)).any(axis=(1, 2))
        for k in np.flatnonzero(asym | ~psd):       # in landmark order
            if np.linalg.norm(C[k] - C[k].T) >= 1e-12:
                raise ValueError("covariance of landmark %d must be symmetric"
                                 % self.ids[k])
            if not psd[k]:
                raise ValueError("covariance of landmark %d must be positive "
                                 "semi-definite" % self.ids[k])

    def __len__(self):
        return len(self.ids)

    def select(self, keep):
        """The landmarks where the (m,) bool mask `keep` holds, in order, as
        a map of the same agent and frame. Every landmark of a map has passed
        its checks, so the subset's covariances are not checked again."""
        positions, covariances = self.positions[keep], self.covariances[keep]
        positions.flags.writeable = covariances.flags.writeable = False
        out = object.__new__(ObjectMap)
        out.__dict__.update(agent_id=self.agent_id, positions=positions,
                            ids=tuple(i for i, k in zip(self.ids, keep) if k),
                            covariances=covariances, frame_label=self.frame_label)
        return out


@dataclass(frozen=True)
class Hyperparameters:
    """All pipeline scalars. Defaults follow the nadir indoor configuration."""

    n_min: int = 3                  # min detections (strict >) for triangulation
    omega_percentile: float = 95.0  # Mahalanobis inlier percentile
    window: float = 2.0             # sets the IoU voxel (w/4); >= overlap, m
    overlap: float = 1.0            # grid step between submap centers, m
    n_max: int = 50                 # max objects per submap
    sigma: float = 0.05             # expected pairwise-consistency noise, m
    epsilon: float = 0.1            # consistency-score cutoff, m
    gamma: float = 0.1              # min distance between matched points, m
    s_max: int = 4                  # success gate: |S| > s_max
    theta_overlap: float = 0.667    # IoU overlap threshold
    theta_rp: float = 10.0          # roll/pitch gate, deg
    theta_yaw: float = 30.0         # yaw gate (evaluation), deg
    t_max: float = 1.5              # translation gate (evaluation), m

    def __post_init__(self):
        for name in self.int_fields():     # slice sizes and counts
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("%s must be an integer" % name)
        for name in self.__dataclass_fields__:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be finite and strictly positive" % name)
        # coordinates lie within +-MAX_COORDINATE, so (X / sigma)^2 of the
        # consistency score stays below about 1.2e37
        if self.sigma < 1.0 / MAX_COORDINATE:
            raise ValueError("sigma must be at least %g m" % (1.0 / MAX_COORDINATE))
        if self.epsilon < self.sigma:
            raise ValueError("epsilon must be >= sigma")
        if self.n_max <= self.s_max:     # every submap would be dropped
            raise ValueError("n_max must be > s_max")
        if self.overlap > self.window:
            raise ValueError("overlap must be <= window")
        if not (0 < self.theta_overlap <= 1):
            raise ValueError("theta_overlap must lie in (0, 1]")
        if self.omega_percentile > 100:
            raise ValueError("omega_percentile must lie in (0, 100]")

    @classmethod
    def int_fields(cls):     # names of the fields annotated int
        return [f.name for f in fields(cls) if f.type in (int, "int")]


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform; apply() maps source-frame coordinates to target-frame.

    The rotation must be orthonormal to 1e-8: track files store rotations at
    %.9g, which moves each entry by <= 5e-10 and ||R'R - I|| and |det R - 1|
    by <= 3e-9, and a saved pose must load again."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_readonly(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _as_readonly(self.translation, (3,), "translation"))
        check_rotation(self.rotation, 1e-8)

    def compose(self, other):
        """Transform equal to applying `other` first, then self."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    def inverse(self):
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)

    def apply(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


def check_pose(rotation, translation):
    """Raise the ValueError of a track-file pose that `RigidTransform`
    rejects or whose translation lies past MAX_COORDINATE."""
    RigidTransform(rotation, translation)
    if not (np.abs(translation) <= MAX_COORDINATE).all():
        raise ValueError("translation must lie within +-%g m" % MAX_COORDINATE)


def project(pose, intrinsics, points):
    """Project odometry-frame points, one (3,) point or an (m, 3) array, into
    pixel coordinates of shape (2,) or (m, 2). For a block of k poses, a
    `Pose` of (k, 3, 3) rotations and (k, 3) translations such as
    `poses[lo:hi]`, the points are (k, m, 3), pose j seeing points[j], and
    the pixels (k, m, 2); each pose's product is the one it makes alone.

    A point at camera-frame depth <= 1e-6 projects to NaN.
    """
    t = pose.translation if pose.rotation.ndim == 2 else pose.translation[:, None]
    p_cam = (np.asarray(points, dtype=float) - t) @ pose.rotation
    z = np.where(p_cam[..., 2] > 1e-6, p_cam[..., 2], np.nan)
    return np.stack([intrinsics.fx * p_cam[..., 0] / z + intrinsics.cx,
                     intrinsics.fy * p_cam[..., 1] / z + intrinsics.cy], axis=-1)


def transform_angles(t):
    """Z-Y-X Euler decomposition of a transform's rotation, in degrees.

    Returns (roll, pitch, yaw). At gimbal lock (|pitch| = 90 deg) the roll is
    set to 0 by convention and the yaw absorbs the remaining rotation.
    """
    R = t.rotation
    sp = -R[2, 0]
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    if abs(sp) > 1.0 - 1e-12:
        roll = 0.0
        yaw = math.atan2(-R[0, 1], R[1, 1])
    else:
        roll = math.atan2(R[2, 1], R[2, 2])
        yaw = math.atan2(R[1, 0], R[0, 0])
    return math.degrees(roll), math.degrees(pitch), math.degrees(yaw)


def rotation_z(yaw_deg):
    """Rotation by `yaw_deg` degrees about +z."""
    c, s = math.cos(math.radians(yaw_deg)), math.sin(math.radians(yaw_deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_y(pitch_deg):
    c, s = math.cos(math.radians(pitch_deg)), math.sin(math.radians(pitch_deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
