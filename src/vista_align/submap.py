"""Submap generation: Mahalanobis inlier filtering + sliding-window grid.

Submap centers tile the x-y bounding box of the landmark positions with step
`overlap`; each center keeps the up-to-n_max landmarks nearest (3D Euclidean)
to the center lifted to the mean landmark height. Membership is purely the
n_max nearest landmarks: `window` does not bound it, and only sets the default
IoU voxel (window / 4) and the upper bound on the grid step (overlap <= window).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ObjectMap


@dataclass(frozen=True)
class Submap:
    """A windowed subset of landmarks around one grid center."""

    center: np.ndarray          # (2,) x-y grid-cell center, m
    landmark_ids: tuple         # ids, aligned with points rows
    points: np.ndarray          # (k, 3) landmark positions, m

    def __post_init__(self):
        object.__setattr__(self, "center", np.array(self.center, dtype=float))
        object.__setattr__(self, "landmark_ids", tuple(int(i) for i in self.landmark_ids))
        object.__setattr__(self, "points", np.array(self.points, dtype=float))

    def __len__(self):
        return len(self.landmark_ids)


def mahalanobis_filter(obj_map, omega_percentile):
    """Keep landmarks within the omega-th percentile of Mahalanobis distance
    to the map's own landmark distribution (linear-interpolation percentile):
    the input of submap generation.

    Maps with fewer than 2 landmarks have no covariance to measure against and
    pass through unchanged. Falls back to Euclidean distance to the mean (with
    a warning) when the sample covariance is singular.
    """
    if not (0 < omega_percentile <= 100):
        raise ValueError("omega_percentile must lie in (0, 100]")
    if len(obj_map) < 2:
        return obj_map
    pos = obj_map.positions
    mean = pos.mean(axis=0)
    centered = pos - mean
    cov = centered.T @ centered / (len(pos) - 1)
    try:
        L = np.linalg.cholesky(cov)
        white = np.linalg.solve(L, centered.T).T
        dist = np.linalg.norm(white, axis=1)
    except np.linalg.LinAlgError:
        warnings.warn("singular landmark covariance; falling back to "
                      "Euclidean distance for the inlier filter")
        dist = np.linalg.norm(centered, axis=1)
    thresh = np.percentile(dist, omega_percentile)
    keep = dist <= thresh
    return ObjectMap(obj_map.agent_id,
                     [i for i, k in zip(obj_map.ids, keep) if k], pos[keep],
                     obj_map.covariances[keep], obj_map.frame_label)


def generate_submaps(obj_map, params):
    """Lay a grid of centers over the map's x-y bounding box and select the
    nearest up-to-n_max landmarks per center. Submaps too small to ever pass
    the |S| > s_max success gate are dropped."""
    if len(obj_map) == 0:
        return []
    pos = obj_map.positions
    ids = np.array(obj_map.ids)
    step = params.overlap
    mins = pos[:, :2].min(axis=0)
    maxs = pos[:, :2].max(axis=0)
    counts = [int(math.floor((maxs[k] - mins[k] + 1e-9) / step)) + 1 for k in range(2)]
    z_mean = pos[:, 2].mean()

    submaps = []
    for ix in range(counts[0]):
        for iy in range(counts[1]):
            center = np.array([mins[0] + ix * step, mins[1] + iy * step])
            c3 = np.array([center[0], center[1], z_mean])
            dist = np.linalg.norm(pos - c3, axis=1)
            order = np.lexsort((ids, dist))[:params.n_max]
            if len(order) < params.s_max + 1:
                continue
            # canonical member order (by id) so equal contents compare equal
            order = order[np.argsort(ids[order])]
            submaps.append(Submap(center, ids[order], pos[order]))
    return submaps
