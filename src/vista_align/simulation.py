"""Synthetic scene, trajectory, and detection-track generator.

Stands in for a segmentation/tracking front-end: objects are placed uniformly
in a box, a camera flies a waypoint polyline at fixed altitude with a fixed
mounting pitch (0 = nadir), and visible objects produce per-frame centroid
detections with optional pixel noise, dropout, and track fragmentation.
Occlusion is modeled only through random dropout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BehindCameraError, ObjectMap, RigidTransform, Track,
                   project, rotation_y, rotation_z)

# camera-to-world for a nadir view: optical axis straight down, image x = +x
_R_NADIR = np.array([[1.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0],
                     [0.0, 0.0, -1.0]])


@dataclass(frozen=True)
class SceneSpec:
    n_objects: int
    extent: tuple            # (x, y, z) box size, m
    n_dynamic: int = 0
    dynamic_velocity: float = 0.0   # m/frame, horizontal
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        if len(self.extent) != 3 or not all(0 < e < math.inf for e in self.extent):
            raise ValueError("extent must be three finite positive components")
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if not (0 <= self.n_dynamic <= self.n_objects):
            raise ValueError("n_dynamic must lie in [0, n_objects]")
        if not abs(self.dynamic_velocity) < math.inf:
            raise ValueError("dynamic_velocity must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrajectorySpec:
    waypoints: tuple         # 3-vectors; x-y is followed, z is overridden
    frames: int
    camera_pitch: float = 0.0   # deg off nadir, tilts the optical axis to +x
    altitude: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "waypoints",
                           tuple(tuple(float(v) for v in w) for w in self.waypoints))
        if self.frames < 2:
            raise ValueError("frames must be >= 2")
        if not (0 <= self.camera_pitch <= 89):
            raise ValueError("camera_pitch must lie in [0, 89] degrees")
        if len(self.waypoints) < 2:
            raise ValueError("at least two waypoints are required")
        if not (np.all(np.isfinite(self.waypoints)) and abs(self.altitude) < math.inf):
            raise ValueError("waypoints and altitude must be finite")
        xy = np.array(self.waypoints)[:, :2]
        if not 0 < np.linalg.norm(np.diff(xy, axis=0), axis=1).sum() < math.inf:
            raise ValueError("waypoints must span a non-degenerate, finite path")


@dataclass(frozen=True)
class SceneObject:
    position: np.ndarray
    velocity: np.ndarray
    dynamic: bool

    def position_at(self, frame):
        return self.position + self.velocity * frame


def generate_scene(spec):
    """Uniform random object placement, seeded and reproducible. Dynamic
    objects move at constant horizontal velocity."""
    rng = np.random.default_rng(spec.seed)
    positions = rng.uniform(0.0, np.array(spec.extent), size=(spec.n_objects, 3))
    dynamic_idx = set(rng.choice(spec.n_objects, size=spec.n_dynamic,
                                 replace=False).tolist()) if spec.n_dynamic else set()
    objects = []
    for i in range(spec.n_objects):
        if i in dynamic_idx:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            vel = spec.dynamic_velocity * np.array([math.cos(heading),
                                                    math.sin(heading), 0.0])
        else:
            vel = np.zeros(3)
        objects.append(SceneObject(positions[i].copy(), vel, i in dynamic_idx))
    return objects


def trajectory_poses(trajectory):
    """Interpolate the waypoint polyline into per-frame camera poses."""
    wps = np.array(trajectory.waypoints, dtype=float)
    seg = np.linalg.norm(np.diff(wps[:, :2], axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    R = _R_NADIR @ rotation_y(trajectory.camera_pitch)
    poses = {}
    for f in range(trajectory.frames):
        s = total * f / (trajectory.frames - 1)
        k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
        frac = (s - cum[k]) / seg[k] if seg[k] > 0 else 0.0
        xy = wps[k, :2] + frac * (wps[k + 1, :2] - wps[k, :2])
        poses[f] = RigidTransform(R, np.array([xy[0], xy[1], trajectory.altitude]))
    return poses


def render_tracks(scene, trajectory, intrinsics, noise=0.0, dropout=0.0,
                  duplicate_rate=0.0, seed=0):
    """Project the scene along the trajectory into detection tracks.

    Centroids falling outside the image (before or after noise) are dropped;
    dropout removes detections at random; duplicate_rate splits an object's
    track into two disjoint ids, emulating redundant objects from tracker
    handoffs. Returns (tracks, {frame: RigidTransform}).
    """
    rng = np.random.default_rng(seed)
    poses = trajectory_poses(trajectory)
    n = len(scene)
    split_flags = rng.uniform(size=n) < duplicate_rate if duplicate_rate > 0 \
        else np.zeros(n, dtype=bool)

    frames = [[] for _ in range(n)]
    pixels = [[] for _ in range(n)]
    for f in sorted(poses):
        pose = poses[f]
        for i, obj in enumerate(scene):
            try:
                px = project(pose, intrinsics, obj.position_at(f))
            except BehindCameraError:
                continue
            if not (0 <= px[0] < intrinsics.width and 0 <= px[1] < intrinsics.height):
                continue
            if noise > 0:
                px = px + rng.normal(0.0, noise, size=2)
                if not (0 <= px[0] < intrinsics.width
                        and 0 <= px[1] < intrinsics.height):
                    continue
            if dropout > 0 and rng.uniform() < dropout:
                continue
            frames[i].append(f)
            pixels[i].append(px)

    tracks = []
    next_id = n
    for i in range(n):
        m = len(frames[i])
        if not m:
            continue
        cut = int(rng.integers(1, m)) if split_flags[i] and m >= 2 else m
        tracks.append(Track(i, frames[i][:cut], pixels[i][:cut]))
        if cut < m:
            tracks.append(Track(next_id, frames[i][cut:], pixels[i][cut:]))
            next_id += 1
    return tracks, poses


def perturb_frame(obj_map, yaw_deg, translation):
    """Apply a yaw-only rotation plus translation to every landmark, rotating
    covariances accordingly. Returns (perturbed map, exact truth transform
    mapping original coordinates into perturbed coordinates)."""
    truth = RigidTransform(rotation_z(yaw_deg), np.array(translation, dtype=float))
    positions, covariances = [], []
    for p, C in zip(obj_map.positions, obj_map.covariances):
        cov = truth.rotation @ C @ truth.rotation.T
        positions.append(truth.apply(p))
        covariances.append(0.5 * (cov + cov.T))
    return ObjectMap(obj_map.agent_id, obj_map.ids, np.reshape(positions, (-1, 3)),
                     np.reshape(covariances, (-1, 3, 3)), obj_map.frame_label), truth

