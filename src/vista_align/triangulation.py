"""Per-track triangulation: tracks + poses -> landmarks with covariances.

Each track is solved independently by nonlinear least squares on the
reprojection error (Gauss-Newton with Levenberg damping), seeded by a linear
midpoint triangulation. Tracks that fail to converge, or that converge with a
reprojection residual well above pixel scale, are treated as dynamic objects
and discarded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DegenerateGeometryError, DivergedError, ObjectMap

MAX_ITERS = 50
STEP_TOL = 1e-8
COST_TOL = 1e-10
MAX_COST_INCREASES = 5
# RMS reprojection residual (px per component) above which a converged fit is
# still rejected as a dynamic object. Assumes roughly pixel-level centroid
# noise; objects moving ~1 m/frame converge (if at all) far above this.
RESIDUAL_FLOOR_PX = 3.0
_BEHIND_PENALTY = 1e6


def filter_tracks(tracks, n_min):
    """Keep tracks with strictly more than n_min detections, order preserved."""
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    return [t for t in tracks if len(t) > n_min]


def _rays(track, poses, intrinsics):
    origins, dirs = [], []
    for frame, (u, v) in zip(track.frames, track.centroids):
        pose = poses[frame]
        d_cam = np.array([(u - intrinsics.cx) / intrinsics.fx,
                          (v - intrinsics.cy) / intrinsics.fy, 1.0])
        d = pose.rotation @ d_cam
        dirs.append(d / np.linalg.norm(d))
        origins.append(pose.translation)
    return np.array(origins), np.array(dirs)


def initial_guess(track, poses, intrinsics):
    """Linear midpoint triangulation: least-squares point closest to all rays."""
    origins, dirs = _rays(track, poses, intrinsics)
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for o, d in zip(origins, dirs):
        P = np.eye(3) - np.outer(d, d)
        A += P
        b += P @ o
    w = np.linalg.eigvalsh(A)
    if w[0] < 1e-8 * max(w[-1], 1e-300):
        raise DegenerateGeometryError("all back-projected rays are parallel")
    return np.linalg.solve(A, b)


def _residuals(point, observations, intrinsics):
    """Residuals, Jacobian, and cost at `point`.

    Observations whose camera-frame depth is <= 1e-6 contribute a fixed penalty
    to the cost instead of a residual; if every detection is behind the
    camera the point is unrecoverable and the track is declared diverged.
    """
    rows_r, rows_j = [], []
    n_behind = 0
    for pose, centroid in observations:
        p_cam = pose.rotation.T @ (point - pose.translation)
        z = p_cam[2]
        if z <= 1e-6:
            n_behind += 1
            continue
        x, y = p_cam[0], p_cam[1]
        rows_r.append([intrinsics.fx * x / z + intrinsics.cx - centroid[0],
                       intrinsics.fy * y / z + intrinsics.cy - centroid[1]])
        d_uv_d_cam = np.array([[intrinsics.fx / z, 0.0, -intrinsics.fx * x / z ** 2],
                               [0.0, intrinsics.fy / z, -intrinsics.fy * y / z ** 2]])
        rows_j.append(d_uv_d_cam @ pose.rotation.T)
    if n_behind == len(observations):
        raise DivergedError("iterate is behind every camera")
    r = np.array(rows_r).ravel()
    J = np.concatenate(rows_j, axis=0)
    cost = float(r @ r) + _BEHIND_PENALTY * n_behind
    return r, J, cost


def reprojection_jacobian(pose, intrinsics, point):
    """Analytic 2x3 Jacobian of project() w.r.t. the 3D point."""
    _, J, _ = _residuals(np.asarray(point, dtype=float),
                         [(pose, np.zeros(2))], intrinsics)
    return J


def refine(track, poses, intrinsics, guess):
    """Gauss-Newton refinement of a track's 3D position.

    Returns (position, covariance), the covariance s^2 (J'J)^-1 where
    s^2 = cost / max(1, 2m - 3). Raises DivergedError when the iteration cap
    is hit, the cost refuses to decrease for 5 consecutive damped steps, or
    the converged residual stays above the pixel-scale floor.
    """
    x = np.array(guess, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess must be finite")
    observations = [(poses[f], c) for f, c in zip(track.frames, track.centroids)]
    m = len(observations)

    r, J, cost = _residuals(x, observations, intrinsics)
    lam = 0.0
    fails = 0
    converged = False
    for _ in range(MAX_ITERS):
        H = J.T @ J + lam * np.eye(3)
        g = J.T @ r
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            lam = max(lam * 10.0, 1e-6)
            continue
        x_new = x + step
        r_new, J_new, cost_new = _residuals(x_new, observations, intrinsics)
        rel_change = abs(cost - cost_new) / max(cost, 1e-300)
        if np.linalg.norm(step) < STEP_TOL or rel_change < COST_TOL:
            if cost_new < cost:
                x, r, J, cost = x_new, r_new, J_new, cost_new
            converged = True
            break
        if cost_new < cost:
            x, r, J, cost = x_new, r_new, J_new, cost_new
            lam *= 0.3
            if lam < 1e-12:
                lam = 0.0
            fails = 0
        else:
            fails += 1
            lam = max(lam * 10.0, 1e-4)
            if fails >= MAX_COST_INCREASES:
                raise DivergedError("cost failed to decrease for %d damped steps"
                                    % MAX_COST_INCREASES)
    if not converged:
        raise DivergedError("no convergence within %d iterations" % MAX_ITERS)

    rms = np.sqrt(cost / (2 * m))
    if rms > RESIDUAL_FLOOR_PX:
        raise DivergedError("converged residual %.2f px exceeds the %.1f px floor"
                            % (rms, RESIDUAL_FLOOR_PX))
    s2 = cost / max(1, 2 * m - 3)
    cov = s2 * np.linalg.inv(J.T @ J)
    cov = 0.5 * (cov + cov.T)
    # clip tiny negative eigenvalues from roundoff
    w, V = np.linalg.eigh(cov)
    cov = (V * np.maximum(w, 0.0)) @ V.T
    cov = 0.5 * (cov + cov.T)
    return x, cov


@dataclass
class BuildStats:
    n_landmarks: int = 0
    n_discarded_short: int = 0
    n_discarded_diverged: int = 0  # includes degenerate-geometry tracks


def build_map(tracks, poses, intrinsics, params, agent_id):
    """Triangulate every track independently into an ObjectMap.

    Returns (ObjectMap, BuildStats). Diverged and degenerate tracks are
    dropped and counted; an empty result triggers a warning, not an error.
    """
    stats = BuildStats()
    kept = filter_tracks(tracks, params.n_min)
    stats.n_discarded_short = len(tracks) - len(kept)
    ids, fits = [], []
    for track in kept:
        try:
            guess = initial_guess(track, poses, intrinsics)
            fits.append(refine(track, poses, intrinsics, guess))
            ids.append(track.track_id)
        except (DegenerateGeometryError, DivergedError):
            stats.n_discarded_diverged += 1
    stats.n_landmarks = len(ids)
    if not ids:
        warnings.warn("build_map produced an empty map for agent %r" % agent_id)
    return ObjectMap(agent_id, ids, np.reshape([x for x, _ in fits], (-1, 3)),
                     np.reshape([cov for _, cov in fits], (-1, 3, 3))), stats
