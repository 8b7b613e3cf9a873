"""Triangulation: tracks + poses -> landmarks with covariances.

Each track's point is fit by nonlinear least squares on the reprojection
error (Gauss-Newton with Levenberg damping), seeded by a linear midpoint
triangulation. With the cameras fixed, each point's normal equations are an
independent 3x3 block (Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 2000), so the tracks of a block iterate at once, each with its
own damping, fail count, convergence test and status; `build_map` takes the
tracks a bounded block at a time. Tracks that fail to converge, or
converge with a reprojection residual well above pixel scale, are treated as
dynamic objects and discarded; the status says why.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BATCH_ROWS, ObjectMap, row_blocks

MAX_ITERS = 50
STEP_TOL = 1e-8
COST_TOL = 1e-10
MAX_COST_INCREASES = 5
# RMS reprojection residual (px per component) above which a converged fit is
# still rejected as a dynamic object. Assumes roughly pixel-level centroid
# noise; objects moving ~1 m/frame converge (if at all) far above this.
RESIDUAL_FLOOR_PX = 3.0
_BEHIND_PENALTY = 1e6

# A track's status is KEPT or the reason it was discarded, REASONS[status - 1]:
# parallel rays, an iterate behind every camera, MAX_ITERS without
# convergence, MAX_COST_INCREASES failed steps in a row, or a converged RMS
# residual above RESIDUAL_FLOOR_PX.
REASONS = ("degenerate", "behind", "iteration_cap", "cost_stall", "residual_floor")
KEPT, DEGENERATE, BEHIND, ITERATION_CAP, COST_STALL, RESIDUAL_FLOOR = range(6)
_RUNNING = -1


def filter_tracks(tracks, n_min):
    """Keep tracks with strictly more than n_min detections, order preserved."""
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    return tracks.select(np.diff(tracks.starts) > n_min)


def initial_guess(tracks, poses, intrinsics):
    """Linear midpoint triangulation of every track: the least-squares point
    closest to its rays. Returns the (n, 3) points and the (n,) mask of the
    DEGENERATE tracks, whose rays are all parallel; their points are NaN."""
    u, v = tracks.centroids.T
    d_cam = np.stack([(u - intrinsics.cx) / intrinsics.fx,
                      (v - intrinsics.cy) / intrinsics.fy, np.ones(len(u))], axis=1)
    d = poses.rotations[tracks.pose_rows] @ d_cam[:, :, None]    # ray directions
    d /= np.sqrt(np.swapaxes(d, 1, 2) @ d)
    P = d * np.swapaxes(d, 1, 2)
    np.subtract(np.eye(3), P, out=P)                # projectors off each ray
    Pt = P @ poses.translations[tracks.pose_rows][:, :, None]
    n = len(tracks)
    track = np.repeat(np.arange(n), np.diff(tracks.starts))
    # A and b summed over each track's rays one at a time, in order
    A, b = (np.stack([np.bincount(track, weights=w, minlength=n)
                      for w in M.reshape(len(M), 3 * M.shape[2]).T],
                     axis=1).reshape(n, 3, M.shape[2]) for M in (P, Pt))
    w = np.linalg.eigvalsh(A)
    degenerate = w[:, 0] < 1e-8 * np.maximum(w[:, -1], 1e-300)
    x = np.full((n, 3), np.nan)
    x[~degenerate] = np.linalg.solve(A[~degenerate], b[~degenerate])[:, :, 0]
    return x, degenerate


def _residuals(points, R, t, centroids, intrinsics):
    """Per detection k, the residual (2,) and Jacobian (2, 3) of points[k]
    seen from the camera (R[k], t[k]) at pixel centroids[k], and whether it
    lies in front of that camera; one at depth <= 1e-6 has zero rows and
    costs a fixed penalty instead."""
    # @ keeps every product bit-equal to the per-observation R.T @ (point - t)
    p_cam = ((points - t)[:, None, :] @ R)[:, 0]
    front = p_cam[:, 2] > 1e-6
    p_cam[~front] = (0.0, 0.0, 1.0)
    x, y, z = p_cam.T
    r = np.stack([intrinsics.fx * x / z + intrinsics.cx - centroids[:, 0],
                  intrinsics.fy * y / z + intrinsics.cy - centroids[:, 1]], axis=1)
    z2 = np.float_power(z, 2.0)     # pow(), as scalar z ** 2; array z ** 2 is z * z
    d_uv_d_cam = np.zeros((len(z), 2, 3))
    d_uv_d_cam[:, 0, 0], d_uv_d_cam[:, 0, 2] = intrinsics.fx / z, -intrinsics.fx * x / z2
    d_uv_d_cam[:, 1, 1], d_uv_d_cam[:, 1, 2] = intrinsics.fy / z, -intrinsics.fy * y / z2
    J = d_uv_d_cam @ np.swapaxes(R, 1, 2)
    r[~front], J[~front] = 0.0, 0.0
    return r, J, front


def _normal_equations(points, poses, rows, centroids, lengths, intrinsics):
    """J'J (k, 3, 3), J'r (k, 3), the cost (k,) and whether the point is
    behind every camera, for k tracks at their points (k, 3); track j owns
    the next lengths[j] pose rows and centroids. Tracks with as many rows
    in front of the camera are stacked, so each product is the BLAS call of
    one track's rows alone."""
    k = len(points)
    track = np.repeat(np.arange(k), lengths)
    r, J, front = _residuals(np.repeat(points, lengths, axis=0), poses.rotations[rows],
                             poses.translations[rows], centroids, intrinsics)
    n_front = np.bincount(track[front], minlength=k)
    seen = np.flatnonzero(front)        # grouped by count, in track order
    seen = seen[np.argsort(n_front[track[seen]], kind="stable")]
    r, J = r[seen], J[seen]
    JJ, Jr, rr = np.zeros((k, 3, 3)), np.zeros((k, 3)), np.zeros(k)
    by_count = np.argsort(n_front, kind="stable")
    lo = hi = 0
    for f, c in zip(*np.unique(n_front, return_counts=True)):
        group, by_count = by_count[:c], by_count[c:]
        lo, hi = hi, hi + c * f
        if f:
            Jg, rg = J[lo:hi].reshape(c, 2 * f, 3), r[lo:hi].reshape(c, 2 * f, 1)
            JJ[group] = np.swapaxes(Jg, 1, 2) @ Jg
            Jr[group] = (np.swapaxes(Jg, 1, 2) @ rg)[:, :, 0]
            rr[group] = (np.swapaxes(rg, 1, 2) @ rg)[:, 0, 0]
    return JJ, Jr, rr + _BEHIND_PENALTY * (lengths - n_front), n_front == 0


def _steps(H, g):
    """-H^-1 g for a stack of 3x3 systems, and the mask of singular H (step 0)."""
    try:
        return np.linalg.solve(H, -g[:, :, None])[:, :, 0], np.zeros(len(H), bool)
    except np.linalg.LinAlgError:       # rare: find the singular ones
        steps, singular = np.zeros_like(g), np.zeros(len(H), bool)
        for k in range(len(H)):
            try:
                steps[k] = np.linalg.solve(H[k], -g[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return steps, singular


def refine(tracks, poses, intrinsics, guesses):
    """Gauss-Newton refinement of every track's point from its guess.

    Returns the (n, 3) points, the (n, 3, 3) covariances and the (n,)
    statuses. A KEPT track's covariance is s^2 (J'J)^-1, where s^2 = cost /
    max(1, 2m - 3) for its m detections; a discarded track's is NaN.
    """
    x = np.array(guesses, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guesses must be finite")
    m = np.diff(tracks.starts)
    track = np.repeat(np.arange(len(x)), m)
    rows, c = tracks.pose_rows, tracks.centroids
    JJ, Jr, cost, behind = _normal_equations(x, poses, rows, c, m, intrinsics)
    status = np.where(behind, BEHIND, _RUNNING)
    lam = np.zeros(len(x))
    fails = np.zeros(len(x), dtype=int)
    for _ in range(MAX_ITERS):
        act = np.flatnonzero(status == _RUNNING)
        if not len(act):
            break
        step, singular = _steps(JJ[act] + lam[act, None, None] * np.eye(3), Jr[act])
        lam[act[singular]] = np.maximum(lam[act[singular]] * 10.0, 1e-6)
        act, step = act[~singular], step[~singular]
        x_new = x[act] + step
        obs = np.isin(track, act)
        JJ_new, Jr_new, cost_new, behind = _normal_equations(
            x_new, poses, rows[obs], c[obs], m[act], intrinsics)
        old = cost[act]
        rel_change = np.abs(old - cost_new) / np.maximum(old, 1e-300)
        # the dot product np.linalg.norm takes of one step
        norm = np.sqrt((step[:, None, :] @ step[:, :, None])[:, 0, 0])
        done = ~behind & ((norm < STEP_TOL) | (rel_change < COST_TOL))
        better = ~behind & (cost_new < old)
        x[act[better]], JJ[act[better]] = x_new[better], JJ_new[better]
        Jr[act[better]], cost[act[better]] = Jr_new[better], cost_new[better]
        status[act[behind]] = BEHIND
        status[act[done]] = KEPT
        up = act[better & ~done]
        lam[up] = np.where(lam[up] * 0.3 < 1e-12, 0.0, lam[up] * 0.3)
        fails[up] = 0
        down = act[~behind & ~better & ~done]
        fails[down] += 1
        lam[down] = np.maximum(lam[down] * 10.0, 1e-4)
        status[down[fails[down] >= MAX_COST_INCREASES]] = COST_STALL
    status[status == _RUNNING] = ITERATION_CAP
    status[(status == KEPT) & (np.sqrt(cost / (2 * m)) > RESIDUAL_FLOOR_PX)] = \
        RESIDUAL_FLOOR

    kept = status == KEPT
    s2 = cost[kept] / np.maximum(1, 2 * m[kept] - 3)
    cov = s2[:, None, None] * np.linalg.inv(JJ[kept])
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    # clip tiny negative eigenvalues from roundoff
    w, V = np.linalg.eigh(cov)
    cov = (V * np.maximum(w, 0.0)[:, None, :]) @ np.swapaxes(V, 1, 2)
    covariances = np.full((len(x), 3, 3), np.nan)
    covariances[kept] = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    return x, covariances, status


@dataclass
class BuildStats:
    n_landmarks: int = 0
    n_discarded_short: int = 0
    discarded: dict = field(default_factory=dict)   # tracks by REASONS

    @property
    def n_discarded_diverged(self):
        return sum(self.discarded.values())


def build_map(tracks, poses, intrinsics, params, agent_id):
    """Triangulate every track into an ObjectMap.

    The tracks are filtered and triangulated a block of whole tracks at a
    time, at most BATCH_ROWS detections unless one track holds more
    (`row_blocks`), so the working arrays do not grow with the track file.
    A track's arithmetic is the same in any block.

    Returns (ObjectMap, BuildStats). Discarded tracks are counted by reason;
    an empty result is an empty map, not an error.
    """
    ids, positions, covariances = [], [np.empty((0, 3))], [np.empty((0, 3, 3))]
    counts = np.zeros(len(REASONS) + 1, dtype=int)
    n_long = 0
    for lo, hi in row_blocks(tracks.starts, BATCH_ROWS):
        long_enough = filter_tracks(tracks.block(lo, hi), params.n_min)
        guesses, degenerate = initial_guess(long_enough, poses, intrinsics)
        solvable = long_enough.select(~degenerate)
        x, cov, status = refine(solvable, poses, intrinsics, guesses[~degenerate])
        counts += np.bincount(status, minlength=len(REASONS) + 1)
        counts[DEGENERATE] += np.count_nonzero(degenerate)
        n_long += len(long_enough)
        kept = status == KEPT
        ids += [i for i, k in zip(solvable.ids, kept) if k]
        positions.append(x[kept])
        covariances.append(cov[kept])
    stats = BuildStats(int(counts[KEPT]), len(tracks) - n_long,
                       dict(zip(REASONS, counts[1:].tolist())))
    return ObjectMap(agent_id, ids, np.concatenate(positions),
                     np.concatenate(covariances)), stats
