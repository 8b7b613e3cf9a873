"""Submap generation: Mahalanobis inlier filtering + sliding-window grid.

Submap centers tile the x-y bounding box of the landmark positions with step
`overlap`; each center keeps the up-to-n_max landmarks nearest (3D Euclidean)
to the center lifted to the mean landmark height. Membership is purely the
n_max nearest landmarks: `window` does not bound it, and only sets the IoU
voxel (window / 4) and the upper bound on the grid step (overlap <= window).
The grid's members, cells x min(n_max, landmarks), are capped at
MAX_GRID_MEMBERS.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BATCH_ROWS, InputError

# A grid member costs 40 bytes of its cell's Submap, or 72 when its landmark
# id is above 256 and so is not one of CPython's cached small ints
# (tracemalloc: 9,900 cells of 60 landmarks, 900 cells of 2,000). A cell
# takes about 10 us to select at 36-60 landmarks and 0.18 ms at 2,000, where
# its sort of every landmark dominates (2-vCPU host). The cap bounds the grid
# near 200-360 MB.
MAX_GRID_MEMBERS = 5_000_000


@dataclass(frozen=True)
class Submap:
    """A windowed subset of landmarks around one grid center."""

    center: np.ndarray          # (2,) x-y grid-cell center, m
    landmark_ids: tuple         # ids, aligned with points rows
    points: np.ndarray          # (k, 3) landmark positions, m

    def __post_init__(self):
        object.__setattr__(self, "center", np.array(self.center, dtype=float))
        object.__setattr__(self, "landmark_ids", tuple(map(int, self.landmark_ids)))
        object.__setattr__(self, "points", np.array(self.points, dtype=float))

    def __len__(self):
        return len(self.landmark_ids)


def mahalanobis_filter(obj_map, omega_percentile):
    """Keep landmarks within the omega-th percentile of Mahalanobis distance
    to the map's own landmark distribution (linear-interpolation percentile):
    the input of submap generation.

    Maps with fewer than 2 landmarks have no covariance to measure against and
    pass through unchanged. Falls back to Euclidean distance to the mean (with
    a warning) when the sample covariance is singular. Positions whose
    covariance overflows the float range are an InputError naming `position`.
    """
    if not (0 < omega_percentile <= 100):
        raise ValueError("omega_percentile must lie in (0, 100]")
    if len(obj_map) < 2:
        return obj_map
    pos = obj_map.positions
    with np.errstate(over="ignore", invalid="ignore"):
        mean = pos.mean(axis=0)
        centered = pos - mean
        cov = centered.T @ centered / (len(pos) - 1)
    if not np.isfinite(cov).all():
        raise InputError("field 'position' of map %r spans too far: the inlier "
                         "filter's covariance overflows the float range"
                         % obj_map.agent_id)
    try:
        L = np.linalg.cholesky(cov)
        white = np.linalg.solve(L, centered.T).T
        dist = np.linalg.norm(white, axis=1)
    except np.linalg.LinAlgError:
        warnings.warn("singular landmark covariance; falling back to "
                      "Euclidean distance for the inlier filter")
        dist = np.linalg.norm(centered, axis=1)
    thresh = np.percentile(dist, omega_percentile)
    return obj_map.select(dist <= thresh)


def generate_submaps(obj_map, params):
    """Lay a grid of centers over the map's x-y bounding box and select the
    nearest up-to-n_max landmarks per center. Submaps too small to ever pass
    the |S| > s_max success gate are dropped. A grid of more than
    MAX_GRID_MEMBERS members is an InputError naming `overlap`, raised
    before any cell is built."""
    if len(obj_map) == 0:
        return []
    pos = obj_map.positions
    # Landmark ids are any ints. An array of ids past int64 is float64 and
    # rounds them, so cells order by each landmark's rank by id and gather
    # their ids from an object array of the exact ints.
    ids = np.array(obj_map.ids, dtype=object)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=obj_map.ids.__getitem__)] = np.arange(len(ids))
    step = params.overlap
    # Counted in Python floats, with no warning: an extent past the float
    # range reads inf and its count nan, which fails the cap's test too.
    mins = pos[:, :2].min(axis=0).tolist()
    extents = [hi - lo for lo, hi in zip(mins, pos[:, :2].max(axis=0).tolist())]
    counts = [(e + 1e-9) / step // 1 + 1 for e in extents]
    if not min(params.n_max, len(ids)) * math.prod(counts) <= MAX_GRID_MEMBERS:
        raise InputError(
            "the submap grid over an extent of %.3g x %.3g m at step %g "
            "exceeds the cap of %d members (cells x min(n_max, landmarks)); "
            "raise field 'overlap'" % (*extents, step, MAX_GRID_MEMBERS))
    counts = [int(c) for c in counts]
    if min(params.n_max, len(ids)) < params.s_max + 1:
        return []
    z_mean = pos[:, 2].mean()
    # the cell centers, x index major: mins + index * step
    cx = np.repeat(mins[0] + np.arange(counts[0]) * step, counts[1])
    cy = np.tile(mins[1] + np.arange(counts[1]) * step, counts[0])
    c3 = np.column_stack([cx, cy, np.full(len(cx), z_mean)])

    # A chunk of cells holds at most BATCH_ROWS cell x landmark rows.
    # Each cell keeps its n_max nearest landmarks by (distance, id), then
    # orders them by id, so equal contents compare equal.
    submaps, step_cells = [], max(1, BATCH_ROWS // len(ids))
    for lo in range(0, len(c3), step_cells):
        centers = c3[lo:lo + step_cells]
        dist = np.linalg.norm(pos[None, :, :] - centers[:, None, :], axis=2)
        order = np.lexsort((np.broadcast_to(rank, dist.shape), dist))[:, :params.n_max]
        order = np.take_along_axis(order, np.argsort(rank[order], axis=1), axis=1)
        for center, members, points in zip(centers[:, :2], ids[order].tolist(),
                                           pos[order]):
            submaps.append(Submap(center, members, points))
    return submaps
