"""Synthetic scene, trajectory, and detection-track generator.

Stands in for a segmentation/tracking front-end: objects are placed uniformly
in a box, a camera flies a waypoint polyline at fixed altitude with a fixed
mounting pitch (0 = nadir), and visible objects produce per-frame centroid
detections with optional pixel noise, dropout, and track fragmentation.
Occlusion is modeled only through random dropout.

A scene is a `Scene` of per-object arrays. Rendering projects a block of
frames in one `project` call, as many as fit in BATCH_ROWS frame x object
rows but at least one, and draws the detections' noise and dropout in
(frame, object) order, so a seed reproduces the same tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (BATCH_ROWS, MAX_COORDINATE, ObjectMap, Poses, RigidTransform,
                   Tracks, project, rotation_y, rotation_z)

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
    # `simulate` peaks near 1 KB an object: the scene's arrays hold 49 bytes,
    # a block's projection, of at least one frame, under 250 more and
    # encoding the ground-truth file about 800, so the cap bounds it near
    # 100 MB.
    MAX_OBJECTS: ClassVar[int] = 100_000

    def __post_init__(self):
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        if len(self.extent) != 3 or not all(0 < e <= MAX_COORDINATE for e in self.extent):
            raise ValueError("extent must be three positive components of at most %g m"
                             % MAX_COORDINATE)
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if self.n_objects > self.MAX_OBJECTS:
            raise ValueError("n_objects must be <= %d" % self.MAX_OBJECTS)
        if not (0 <= self.n_dynamic <= self.n_objects):
            raise ValueError("n_dynamic must lie in [0, n_objects]")
        if not abs(self.dynamic_velocity) <= MAX_COORDINATE:
            raise ValueError("dynamic_velocity must be finite, within +-%g m/frame"
                             % MAX_COORDINATE)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrajectorySpec:
    waypoints: tuple         # 3-vectors; x-y is followed, z is overridden
    frames: int
    camera_pitch: float = 0.0   # deg off nadir, tilts the optical axis to +x
    altitude: float = 10.0
    # The pose table holds 96 bytes a frame, allocated before any is rendered.
    MAX_FRAMES: ClassVar[int] = 100_000

    def __post_init__(self):
        object.__setattr__(self, "waypoints",
                           tuple(tuple(float(v) for v in w) for w in self.waypoints))
        if self.frames < 2:
            raise ValueError("frames must be >= 2")
        if self.frames > self.MAX_FRAMES:
            raise ValueError("frames must be <= %d" % self.MAX_FRAMES)
        if not (0 <= self.camera_pitch <= 89):
            raise ValueError("camera_pitch must lie in [0, 89] degrees")
        if len(self.waypoints) < 2:
            raise ValueError("at least two waypoints are required")
        if not np.all(np.abs(self.waypoints) <= MAX_COORDINATE):
            raise ValueError("waypoints must be finite, within +-%g m" % MAX_COORDINATE)
        if not abs(self.altitude) <= MAX_COORDINATE:
            raise ValueError("altitude must be finite, within +-%g m" % MAX_COORDINATE)
        xy = np.array(self.waypoints)[:, :2]
        if not np.linalg.norm(np.diff(xy, axis=0), axis=1).sum() > 0:
            raise ValueError("waypoints must span a non-degenerate path")


@dataclass(frozen=True)
class Scene:
    """Ground-truth objects: object i sits at positions[i] + f * velocities[i]
    in frame f, both (n, 3) arrays, and dynamic[i], an (n,) bool array, marks
    the objects that move."""

    positions: np.ndarray
    velocities: np.ndarray
    dynamic: np.ndarray

    def __len__(self):
        return len(self.positions)


def generate_scene(spec):
    """Uniform random object placement, seeded and reproducible. Dynamic
    objects move at constant horizontal velocity."""
    rng = np.random.default_rng(spec.seed)
    positions = rng.uniform(0.0, np.array(spec.extent), size=(spec.n_objects, 3))
    dynamic = np.zeros(spec.n_objects, dtype=bool)
    if spec.n_dynamic:
        dynamic[rng.choice(spec.n_objects, size=spec.n_dynamic, replace=False)] = True
    velocities = np.zeros((spec.n_objects, 3))
    for i in np.flatnonzero(dynamic):      # headings drawn in ascending index
        heading = rng.uniform(0.0, 2.0 * math.pi)
        velocities[i] = spec.dynamic_velocity * np.array([math.cos(heading),
                                                          math.sin(heading), 0.0])
    return Scene(positions, velocities, dynamic)


def trajectory_poses(trajectory):
    """Interpolate the waypoint polyline into the `Poses` of frames
    0..frames-1, all with one camera rotation."""
    wps = np.array(trajectory.waypoints, dtype=float)
    seg = np.linalg.norm(np.diff(wps[:, :2], axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    n = trajectory.frames
    s = cum[-1] * np.arange(n) / (n - 1)
    k = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
    frac = np.divide(s - cum[k], seg[k], out=np.zeros(n), where=seg[k] > 0)
    xy = wps[k, :2] + frac[:, None] * (wps[k + 1, :2] - wps[k, :2])
    R = _R_NADIR @ rotation_y(trajectory.camera_pitch)
    return Poses(range(n), np.broadcast_to(R, (n, 3, 3)),
                 np.column_stack([xy, np.full(n, float(trajectory.altitude))]))


def _in_image(px, intrinsics):
    """Whether pixel coordinates (..., 2) fall inside the image; NaN does not."""
    return ((0 <= px[..., 0]) & (px[..., 0] < intrinsics.width)
            & (0 <= px[..., 1]) & (px[..., 1] < intrinsics.height))


def render_tracks(scene, trajectory, intrinsics, noise=0.0, dropout=0.0,
                  duplicate_rate=0.0, seed=0):
    """Project the scene along the trajectory into detection tracks.

    Centroids falling outside the image (before or after noise) are dropped;
    dropout removes detections at random; duplicate_rate splits an object's
    track into two disjoint ids, emulating redundant objects from tracker
    handoffs. Returns (Tracks, Poses); a track's pose rows are its frames.

    Random draws, all from one generator seeded with `seed`, come in this
    order: one split flag per object (only if duplicate_rate > 0); then the
    frames in ascending order, and within a frame the in-image objects in
    ascending index, each drawing its noise pair and then, if its noisy pixel
    is still in the image, its dropout uniform; last, one split cut per split
    object of at least two detections, in ascending object index. A frame's
    draws are made in one call when only noise or only dropout is on, which
    gives the same values as one draw per detection. With both on, whether a
    detection draws a uniform depends on its noise pair, so those draws are
    made one detection at a time.

    The frames are projected a block at a time, at most BATCH_ROWS frame x
    object rows but at least one frame, which bounds the working arrays;
    the block size changes neither the pixels nor the draws.
    """
    rng = np.random.default_rng(seed)
    poses = trajectory_poses(trajectory)
    n = len(scene)
    split_flags = rng.uniform(size=n) < duplicate_rate if duplicate_rate > 0 \
        else np.zeros(n, dtype=bool)

    frames, objects, pixels = [], [], []
    step = max(1, BATCH_ROWS // max(n, 1))      # frames a block projects
    for lo in range(0, len(poses), step):
        f = np.arange(lo, min(lo + step, len(poses)))
        projected = project(poses[lo:lo + step], intrinsics,
                            scene.positions + scene.velocities * f[:, None, None])
        inside = _in_image(projected, intrinsics)
        at, seen = np.nonzero(inside)           # in (frame, object) order
        px = projected[inside]
        keep = np.ones(len(seen), dtype=bool)
        if noise > 0 and dropout > 0:
            # a uniform is drawn only for a detection its noise left in the image
            for k in range(len(seen)):
                px[k] += rng.normal(0.0, noise, size=2)
                keep[k] = _in_image(px[k], intrinsics) and rng.uniform() >= dropout
        elif noise > 0:
            px += np.concatenate([rng.normal(0.0, noise, size=(c, 2))
                                  for c in inside.sum(axis=1)])
            keep = _in_image(px, intrinsics)
        elif dropout > 0:
            keep = np.concatenate([rng.uniform(size=c)
                                   for c in inside.sum(axis=1)]) >= dropout
        frames.append(f[at[keep]])
        objects.append(seen[keep])
        pixels.append(px[keep])

    objects = np.concatenate(objects)
    order = np.argsort(objects, kind="stable")      # by object, frames ascending
    ends = np.cumsum(np.bincount(objects, minlength=n)).tolist()

    ids, starts = [], [0]       # a split track's halves are adjacent rows
    next_id = n
    for i, (lo, hi) in enumerate(zip([0] + ends, ends)):
        m = hi - lo
        if not m:
            continue
        cut = lo + (int(rng.integers(1, m)) if split_flags[i] and m >= 2 else m)
        ids.append(i)
        starts.append(cut)
        if cut < hi:
            ids.append(next_id)
            starts.append(hi)
            next_id += 1
    return Tracks(ids, starts, np.concatenate(frames)[order],
                  np.concatenate(pixels)[order]), poses


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

