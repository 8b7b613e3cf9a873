"""Shared geometric types, hyperparameters, and camera primitives.

Conventions used throughout the package:

* A pose is the body-to-odometry `RigidTransform` of one frame; projecting a
  world point applies its inverse.
* The camera is an ideal pinhole (zero distortion). Camera frame = body frame;
  any camera/IMU extrinsic must be folded into the poses upstream.
* Euler angles are Z-Y-X (yaw about gravity-aligned +z, then pitch, then roll),
  degrees at API boundaries, radians internally.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


class DegenerateGeometryError(Exception):
    """Input geometry is rank-deficient (parallel rays, collinear points, ...)."""


class DivergedError(Exception):
    """Nonlinear refinement failed to converge; caller should discard the track."""


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be finite and positive" % name)
        if not (0 <= self.cx < self.width):
            raise ValueError("cx must lie within [0, width)")
        if not (0 <= self.cy < self.height):
            raise ValueError("cy must lie within [0, height)")


@dataclass(frozen=True)
class Track:
    """One object's centroid detections: pixel centroids[k] = (u, v) seen at
    frames[k]."""

    track_id: int
    frames: tuple
    centroids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "centroids", _as_readonly(
            self.centroids, (len(self.frames), 2), "centroids"))
        if any(b <= a for a, b in zip(self.frames, self.frames[1:])):
            raise ValueError("frames must be strictly increasing")

    def __len__(self):
        return len(self.frames)


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


@dataclass(frozen=True)
class Hyperparameters:
    """All pipeline scalars. Defaults follow the nadir indoor configuration."""

    n_min: int = 3                  # min detections (strict >) for triangulation
    omega_percentile: float = 95.0  # Mahalanobis inlier percentile
    window: float = 2.0             # IoU voxel default (w/4); >= overlap, m
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


def project(pose, intrinsics, points):
    """Project odometry-frame points, one (3,) point or an (m, 3) array, into
    pixel coordinates of shape (2,) or (m, 2).

    A point at camera-frame depth <= 1e-6 projects to NaN.
    """
    p_cam = (np.asarray(points, dtype=float) - pose.translation) @ pose.rotation
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
