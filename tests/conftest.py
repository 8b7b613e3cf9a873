import math
import os
import sys
from dataclasses import dataclass, replace

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vista_align.association import (_SUPPORT_TOL, MAX_CANDIDATES, AffinityMatrix,
                                     _ascend, _edges, consistency_score)
from vista_align import triangulation as tri
from vista_align.core import (CameraIntrinsics, DegenerateGeometryError, ObjectMap,
                              Poses, RigidTransform, Tracks, transform_angles)
from vista_align.core import InputError
from vista_align.formats import (_NUMBER, _compact, _f, _floats, _intrinsics, _invalid,
                                 _json, _require, transform_to_json)
from vista_align.submap import Submap
from vista_align.triangulation import _residuals


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                            width=640, height=480)


def identity():
    """The identity `RigidTransform`."""
    return RigidTransform(np.eye(3), np.zeros(3))


def rotation_x(roll_deg):
    c, s = math.cos(math.radians(roll_deg)), math.sin(math.radians(roll_deg))
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_rotation(rng):
    """Uniform-ish random rotation via QR of a Gaussian matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 2] = -Q[:, 2]
    return Q


def map_from_points(points, cov_scale=1e-4, agent_id="a"):
    """A map of `points` with ids 0..m-1, each with covariance cov_scale * I."""
    points = np.reshape(points, (-1, 3))
    return ObjectMap(agent_id, range(len(points)), points,
                     np.broadcast_to(cov_scale * np.eye(3), (len(points), 3, 3)))


def looking_at_origin_pose(position):
    """Pose whose camera optical axis points from `position` at the origin."""
    position = np.asarray(position, dtype=float)
    z = -position / np.linalg.norm(position)
    up = np.array([0.0, 0.0, 1.0])
    if abs(z @ up) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    return RigidTransform(R, position)


def dense(affinity):
    """The n x n matrix A of an `AffinityMatrix`: its weights on its edges,
    zero elsewhere."""
    M = np.zeros((affinity.size, affinity.size))
    M[np.repeat(np.arange(affinity.size), np.diff(affinity.starts)),
      affinity.cols] = affinity.entries
    return M


def affinity_from_dense(M):
    """The `AffinityMatrix` of a dense matrix: its entries > 0, row by row."""
    rows, cols = np.nonzero(M > 0.0)
    return AffinityMatrix(len(M), np.searchsorted(rows, np.arange(len(M) + 1)),
                          cols, M[rows, cols])


def clique_number(affinity):
    """Clique number of the graph A > 0, by networkx's maximal cliques."""
    G = nx.Graph()
    G.add_nodes_from(range(affinity.size))
    G.add_edges_from(zip(*np.nonzero(np.triu(dense(affinity) > 0.0, k=1))))
    return max((len(c) for c in nx.find_cliques(G)), default=0)


def reprojection_jacobian(pose, intrinsics, point):
    """Analytic 2x3 Jacobian of project() w.r.t. the 3D point: the one
    `triangulation.refine` steps with, from `_residuals`."""
    _, J, _ = _residuals(np.asarray(point, dtype=float)[None], pose.rotation[None],
                         pose.translation[None], np.zeros((1, 2)), intrinsics)
    return J[0]


def pose_table(poses):
    """The `Poses` of a {frame: RigidTransform} dict."""
    frames = sorted(poses)
    return Poses(frames, np.reshape([poses[f].rotation for f in frames], (-1, 3, 3)),
                 np.reshape([poses[f].translation for f in frames], (-1, 3)))


def track_table(tracks):
    """The `Tracks` of (track_id, pose rows, centroids) triples."""
    lengths = [len(rows) for _, rows, _ in tracks]
    return Tracks([tid for tid, _, _ in tracks], np.cumsum([0] + lengths),
                  np.concatenate([np.zeros(0, int)]
                                 + [np.asarray(rows, int) for _, rows, _ in tracks]),
                  np.reshape([c for _, _, cs in tracks for c in np.reshape(cs, (-1, 2))],
                             (-1, 2)))


# ----------------------------------------------------------------------------
# Triangulation as it was, one track at a time: the reference the batched
# `triangulation.build_map` must match. The code below is unchanged but for
# its names; it reads tracks as `Track`s and poses as a {frame: pose} dict.

@dataclass(frozen=True)
class Track:
    track_id: int
    frames: tuple
    centroids: np.ndarray

    def __len__(self):
        return len(self.frames)


class DivergedError(Exception):
    """Nonlinear refinement failed to converge; caller should discard the track."""


def per_track(tracks, poses):
    """The tracks as `Track`s, and the poses as a {frame: pose} dict."""
    return ([Track(tid, tuple(poses.frames[k] for k in tracks.pose_rows[r]),
                   tracks.centroids[r]) for tid, r in zip(tracks.ids, tracks)],
            {f: poses[k] for k, f in enumerate(poses.frames)})


def _stack(track, poses):
    """The rotations (m, 3, 3) and translations (m, 3) of a track's frames."""
    return (np.array([poses[f].rotation for f in track.frames]),
            np.array([poses[f].translation for f in track.frames]))


def per_track_initial_guess(track, poses, intrinsics):
    """Linear midpoint triangulation: least-squares point closest to all rays."""
    R, t = _stack(track, poses)
    u, v = track.centroids.T
    d_cam = np.stack([(u - intrinsics.cx) / intrinsics.fx,
                      (v - intrinsics.cy) / intrinsics.fy, np.ones(len(u))], axis=1)
    d = R @ d_cam[:, :, None]                       # (m, 3, 1) ray directions
    d = d / np.sqrt(np.swapaxes(d, 1, 2) @ d)
    P = np.eye(3) - d * np.swapaxes(d, 1, 2)        # projectors off each ray
    A = P.sum(axis=0)
    b = (P @ t[:, :, None]).sum(axis=0)[:, 0]
    w = np.linalg.eigvalsh(A)
    if w[0] < 1e-8 * max(w[-1], 1e-300):
        raise DegenerateGeometryError("all back-projected rays are parallel")
    return np.linalg.solve(A, b)


def per_track_residuals(point, R, t, centroids, intrinsics):
    """Residuals, Jacobian, and cost at `point` seen from the cameras
    (R[k], t[k]) at pixel centroids[k].

    Observations whose camera-frame depth is <= 1e-6 contribute a fixed penalty
    to the cost instead of a residual; if every detection is behind the
    camera the point is unrecoverable and the track is declared diverged.
    """
    # @ keeps every product bit-equal to the per-observation R.T @ (point - t)
    p_cam = ((point - t)[:, None, :] @ R)[:, 0]
    front = p_cam[:, 2] > 1e-6
    n_behind = len(front) - np.count_nonzero(front)
    if n_behind == len(front):
        raise DivergedError("iterate is behind every camera")
    (x, y, z), c = p_cam[front].T, centroids[front]
    r = np.stack([intrinsics.fx * x / z + intrinsics.cx - c[:, 0],
                  intrinsics.fy * y / z + intrinsics.cy - c[:, 1]], axis=1).ravel()
    z2 = np.float_power(z, 2.0)     # pow(), as scalar z ** 2; array z ** 2 is z * z
    zero = np.zeros_like(z)
    d_uv_d_cam = np.stack([intrinsics.fx / z, zero, -intrinsics.fx * x / z2,
                           zero, intrinsics.fy / z, -intrinsics.fy * y / z2],
                          axis=1).reshape(-1, 2, 3)
    J = (d_uv_d_cam @ np.swapaxes(R[front], 1, 2)).reshape(-1, 3)
    cost = float(r @ r) + tri._BEHIND_PENALTY * n_behind
    return r, J, cost


def per_track_refine(track, poses, intrinsics, guess):
    """Gauss-Newton refinement of a track's 3D position.

    Returns (position, covariance), the covariance s^2 (J'J)^-1 where
    s^2 = cost / max(1, 2m - 3). Raises DivergedError when the iteration cap
    is hit, the cost refuses to decrease for 5 consecutive damped steps, or
    the converged residual stays above the pixel-scale floor.
    """
    x = np.array(guess, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess must be finite")
    R, t = _stack(track, poses)
    m = len(track)

    r, J, cost = per_track_residuals(x, R, t, track.centroids, intrinsics)
    lam = 0.0
    fails = 0
    converged = False
    for _ in range(tri.MAX_ITERS):
        H = J.T @ J + lam * np.eye(3)
        g = J.T @ r
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            lam = max(lam * 10.0, 1e-6)
            continue
        x_new = x + step
        r_new, J_new, cost_new = per_track_residuals(x_new, R, t, track.centroids,
                                                     intrinsics)
        rel_change = abs(cost - cost_new) / max(cost, 1e-300)
        if np.linalg.norm(step) < tri.STEP_TOL or rel_change < tri.COST_TOL:
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
            if fails >= tri.MAX_COST_INCREASES:
                raise DivergedError("cost failed to decrease for %d damped steps"
                                    % tri.MAX_COST_INCREASES)
    if not converged:
        raise DivergedError("no convergence within %d iterations" % tri.MAX_ITERS)

    rms = np.sqrt(cost / (2 * m))
    if rms > tri.RESIDUAL_FLOOR_PX:
        raise DivergedError("converged residual %.2f px exceeds the %.1f px floor"
                            % (rms, tri.RESIDUAL_FLOOR_PX))
    s2 = cost / max(1, 2 * m - 3)
    cov = s2 * np.linalg.inv(J.T @ J)
    cov = 0.5 * (cov + cov.T)
    # clip tiny negative eigenvalues from roundoff
    w, V = np.linalg.eigh(cov)
    cov = (V * np.maximum(w, 0.0)) @ V.T
    cov = 0.5 * (cov + cov.T)
    return x, cov


# DivergedError messages by the status the batch gives the track
_REASONS = {"behind": tri.BEHIND, "no convergence": tri.ITERATION_CAP,
            "cost failed": tri.COST_STALL, "exceeds": tri.RESIDUAL_FLOOR}


def per_track_build_map(tracks, poses, intrinsics, params, agent_id):
    """`triangulation.build_map` one track at a time, on `per_track`'s
    inputs: (ObjectMap, {track_id: status}) over the tracks long enough to
    triangulate."""
    ids, fits, status = [], [], {}
    for track in [t for t in tracks if len(t) > params.n_min]:
        try:
            guess = per_track_initial_guess(track, poses, intrinsics)
            fits.append(per_track_refine(track, poses, intrinsics, guess))
            ids.append(track.track_id)
            status[track.track_id] = tri.KEPT
        except DegenerateGeometryError:
            status[track.track_id] = tri.DEGENERATE
        except DivergedError as exc:
            status[track.track_id] = next(s for k, s in _REASONS.items()
                                          if k in str(exc))
    return ObjectMap(agent_id, ids, np.reshape([x for x, _ in fits], (-1, 3)),
                     np.reshape([cov for _, cov in fits], (-1, 3, 3))), status


def densest_clique_exact(affinity):
    """Exhaustive oracle for the densest consistent clique (n <= 20), as a
    sorted array of candidate indices, under the same precondition as
    `densest_clique`.

    Ties are broken by larger cardinality, then lexicographically earliest
    index set.
    """
    A = dense(affinity)
    n = affinity.size
    if n > 20:
        raise ValueError("exhaustive enumeration is capped at 20 candidates")
    Z = np.asarray(np.logical_not(A > 0.0), dtype=float)
    np.fill_diagonal(Z, 0.0)

    def indices(mask):
        return tuple(i for i in range(n) if (mask >> i) & 1)

    best_density, best_k, best_idx = -1.0, 0, ()
    bits = np.arange(n)
    chunk = 1 << 16
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        B = ((masks[:, None] >> bits) & 1).astype(float)
        viol = np.einsum("mi,ij,mj->m", B, Z, B)
        q = np.einsum("mi,ij,mj->m", B, A, B)
        k = B.sum(axis=1)
        density = np.where(viol > 0, -1.0, q / k)
        for idx in np.flatnonzero(density > best_density - 1e-12):
            dens, kk = density[idx], int(k[idx])
            if dens > best_density + 1e-12:
                best_density, best_k, best_idx = dens, kk, indices(int(masks[idx]))
            elif abs(dens - best_density) <= 1e-12:
                cand = indices(int(masks[idx]))
                if kk > best_k or (kk == best_k and cand < best_idx):
                    best_k, best_idx = kk, cand
    return np.array(best_idx, dtype=int)


def k_core_in_one_pass(affinity, k):
    """`association._k_core` as it counted every row's core edges at once,
    9 bytes an edge of the graph: the reference the block-wise count must
    match."""
    cols, starts = affinity.cols, affinity.starts
    core = np.diff(starts) >= k                 # a row's edges include itself
    while core.any():
        kept = core & (np.add.reduceat(core[cols], starts[:-1], dtype=np.intp) >= k)
        if np.array_equal(kept, core):
            break
        core = kept
    return core


def has_clique_per_edge(affinity, k):
    """`association.has_clique` as it packed its bitsets from the k-core's
    edges all at once, one byte-level sum per edge: the reference the
    block-packed bitsets must answer as. Exact."""
    if k <= 0:
        return True
    cols = affinity.cols
    core = k_core_in_one_pass(affinity, k)
    nodes = np.flatnonzero(core)
    if not nodes.size:
        return False
    width = (affinity.size + 7) // 8
    edge, owner = _edges(affinity, nodes)
    byte = owner * width + (cols[edge] >> 3)
    first = np.flatnonzero(np.diff(byte, prepend=-1))     # a row's byte begins
    packed = np.zeros(len(nodes) * width, dtype=np.uint8)
    packed[byte[first]] = np.add.reduceat(
        np.left_shift(1, cols[edge] & 7).astype(np.uint8), first)
    packed = packed.tobytes()
    rows = dict(zip(nodes.tolist(), (int.from_bytes(packed[r:r + width], "little")
                                     for r in range(0, len(packed), width))))

    def extend(cand, need):
        while cand.bit_count() >= need:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if need == 1 or extend(cand & rows[v], need - 1):
                return True
        return False

    return extend(int.from_bytes(np.packbits(core, bitorder="little").tobytes(),
                                 "little"), k)


# ----------------------------------------------------------------------------
# The consistency graph as a dense n x n matrix, and the rounding on it: the
# reference the edge-list build and solver must match entry for entry and
# index for index. The code below is unchanged but for the name of
# `build_affinity_dense` and its return of the dense matrix M itself.

def build_affinity_dense(submap_a, submap_b, params):
    """All-to-all candidate associations and their pairwise affinity matrix.

    Returns (pairs, M): row p of the (n, 2) int array `pairs` is
    (index_a, index_b), with p = index_a * nb + index_b.

    Entries are zeroed for association pairs whose endpoints within either
    map are closer than gamma > 0 (duplicate-object suppression). That rule
    also enforces one-to-one matching: a shared endpoint is at distance 0.
    """
    na, nb = len(submap_a), len(submap_b)
    if na == 0 or nb == 0:
        raise ValueError("submaps must be non-empty")
    n = na * nb
    if n > MAX_CANDIDATES:
        raise InputError("%d x %d = %d candidates exceed the cap of %d; "
                         "lower field 'n_max'" % (na, nb, n, MAX_CANDIDATES))
    pa, pb = submap_a.points, submap_b.points
    DA = np.linalg.norm(pa[:, None, :] - pa[None, :, :], axis=2)
    DB = np.linalg.norm(pb[:, None, :] - pb[None, :, :], axis=2)

    # association p = (i, k) lives at flat index i * nb + k. X is reused as
    # the matrix: a large pair holds one n x n float array, not several.
    X = DA[:, None, :, None] - DB[None, :, None, :]
    valid = (X <= params.epsilon) & (X >= -params.epsilon)
    valid &= (DA >= params.gamma)[:, None, :, None]   # gamma within map A
    valid &= (DB >= params.gamma)[None, :, None, :]   # gamma within map B
    kernel = X[valid]
    X.fill(0.0)
    X[valid] = consistency_score(kernel, params.sigma, params.epsilon)
    M = X.reshape(n, n)
    np.fill_diagonal(M, 1.0)

    return np.indices((na, nb)).reshape(2, n).T, M


def _grow(seed, A, feasible):
    """Greedily extend a feasible seed set, always adding the candidate with
    the largest affinity mass to the current set (ties: lowest index), and
    return the densest prefix of the growth sequence."""
    members = list(seed)
    feas = np.logical_and.reduce(feasible[members], axis=0)
    feas[members] = False
    sig = A[members].sum(axis=0)
    k = len(members)
    Q = float(A[np.ix_(members, members)].sum())
    best, best_density = members[:], Q / k
    while True:
        cand = np.flatnonzero(feas)
        if not cand.size:
            break
        j = int(cand[np.argmax(sig[cand])])
        Q += 1.0 + 2.0 * sig[j]
        k += 1
        members.append(j)
        feas &= feasible[j]
        feas[j] = False
        sig = sig + A[j]
        if Q / k > best_density + 1e-12:
            best, best_density = members[:], Q / k
    return best, best_density


def _local_improve(selected, A, feasible):
    """Steepest-ascent add / remove / swap moves on the density objective."""
    S = sorted(selected)
    n = len(A)
    while True:
        k = len(S)
        Q = float(A[np.ix_(S, S)].sum())
        d = Q / k
        in_set = np.zeros(n, dtype=bool)
        in_set[S] = True
        sig = A[S].sum(axis=0)          # affinity mass of every node w.r.t. S
        feas_all = np.logical_and.reduce(feasible[S], axis=0)

        best_gain, move = 1e-12, None
        add = np.flatnonzero(feas_all & ~in_set)
        for j in add:
            nd = (Q + 1.0 + 2.0 * sig[j]) / (k + 1)
            if nd - d > best_gain:
                best_gain, move = nd - d, ("add", int(j))
        if k > 1:
            for i in S:
                nd = (Q - 1.0 - 2.0 * (sig[i] - 1.0)) / (k - 1)
                if nd - d > best_gain:
                    best_gain, move = nd - d, ("remove", i)
        for i in S:
            Qi = Q - 1.0 - 2.0 * (sig[i] - 1.0)
            feas_wo_i = np.logical_and.reduce(feasible[[m for m in S if m != i]],
                                              axis=0) if k > 1 else np.ones(n, bool)
            for j in np.flatnonzero(feas_wo_i & ~in_set):
                nd = (Qi + 1.0 + 2.0 * (sig[j] - A[i, j])) / k
                if nd - d > best_gain:
                    best_gain, move = nd - d, ("swap", i, int(j))
        if move is None:
            return S
        if move[0] == "add":
            S = sorted(S + [move[1]])
        elif move[0] == "remove":
            S = [m for m in S if m != move[1]]
        else:
            S = sorted([m for m in S if m != move[1]] + [move[2]])


def _round(u, A, feasible):
    """Round the relaxed u to a feasible set: multi-start greedy growth from
    the heaviest nodes (all feasible pairs too, on small problems), keep the
    densest result, then polish with local moves. Fully deterministic."""
    n = len(u)
    order = np.lexsort((np.arange(n), -u))
    best, best_density = [], -1.0

    seeds = [[int(i)] for i in (order if n <= 64 else order[:32])]
    if n <= 64:
        pairs = np.argwhere(np.triu(feasible, k=1))
        seeds.extend([[int(i), int(j)] for i, j in pairs])
    for seed in seeds:
        grown, density = _grow(seed, A, feasible)
        if density > best_density + 1e-12 or (abs(density - best_density) <= 1e-12
                                              and len(grown) > len(best)):
            best, best_density = grown, density
    return _local_improve(best, A, feasible)


def densest_clique_dense(affinity):
    """`association.densest_clique` as it was on the dense matrix A: the
    restart node from A's row sums, an n x n copy Md of A, rewritten each
    homotopy round with -d on every infeasible pair, multiplied by BLAS, an
    n x n mask for the support test, and the dense `_round` above. The
    reference the edge-list solver must match index for index."""
    A = dense(affinity)
    n = affinity.size
    if n == 0:
        return np.zeros(0, dtype=int)
    feasible = A > 0.0
    infeasible = ~feasible
    np.fill_diagonal(infeasible, False)

    restart = np.zeros(n)                         # e_j, j the heaviest row
    restart[int(np.argmax(A.sum(axis=1)))] = 1.0
    u = _ascend(A, np.full(n, 1.0 / np.sqrt(n)), 100, restart)

    d = 0.0
    Md = A.copy()
    for _ in range(60):
        np.copyto(Md, -d, where=infeasible)      # A, with -d on infeasible pairs
        u = _ascend(Md, u, 200, restart)
        support = np.flatnonzero(u > _SUPPORT_TOL)
        if support.size and not infeasible[np.ix_(support, support)].any():
            break
        d = 0.25 if d == 0.0 else d * 1.4

    return np.array(_round(u, A, feasible), dtype=int)   # sorted


def generate_submaps_per_cell(obj_map, params):
    """`submap.generate_submaps` as it selected one cell at a time, with its
    own distances, `(distance, id)` lexsort, n_max cut and id sort: the
    reference the chunked pass must match cell for cell and bit for bit.
    The grid cap is left out."""
    if len(obj_map) == 0:
        return []
    pos = obj_map.positions
    ids = np.array(obj_map.ids)
    step = params.overlap
    mins = pos[:, :2].min(axis=0).tolist()
    extents = [hi - lo for lo, hi in zip(mins, pos[:, :2].max(axis=0).tolist())]
    counts = [int((e + 1e-9) / step // 1 + 1) for e in extents]
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
            order = order[np.argsort(ids[order])]
            submaps.append(Submap(center, ids[order], pos[order]))
    return submaps


def track_file_to_json_per_value(intrinsics, poses, tracks):
    """`formats.track_file_to_json` as it was with one `_f` call per centroid
    value. The reference the per-track format must match byte for byte."""
    intr = ('{"fx":%s,"fy":%s,"cx":%s,"cy":%s,"width":%d,"height":%d}'
            % (_f(intrinsics.fx), _f(intrinsics.fy), _f(intrinsics.cx),
               _f(intrinsics.cy), intrinsics.width, intrinsics.height))
    pose_parts = []
    for frame, R, t in zip(poses.frames, poses.rotations, poses.translations):
        pose_parts.append('{"frame":%d,"rotation":%s,"translation":%s}'
                          % (frame, _floats(R.ravel()), _floats(t)))
    track_parts = []
    for tr in per_track(tracks, poses)[0]:
        dets = ",".join('{"frame":%d,"u":%s,"v":%s}' % (f, _f(u), _f(v))
                        for f, (u, v) in zip(tr.frames, tr.centroids.tolist()))
        track_parts.append('{"id":%d,"detections":[%s]}' % (tr.track_id, dets))
    return ('{"intrinsics":%s,"poses":[%s],"tracks":[%s]}'
            % (intr, ",".join(pose_parts), ",".join(track_parts)))


def grid_hypotheses(solves):
    """`alignment.align_maps` as it was: a copy of each kept solve's
    `AlignmentHypothesis` for every grid pair it covers, sorted by
    cardinality descending, then source, then target submap."""
    hyps = [replace(h, source_submap=ia, target_submap=ib)
            for cells_a, cells_b, h in solves
            for ia in cells_a for ib in cells_b]
    return sorted(hyps, key=lambda h: (-h.cardinality, h.source_submap,
                                       h.target_submap))


def hypotheses_to_json_per_grid_pair(solves, top_k=None):
    """`match`'s hypothesis file as it was written: the first `top_k` of
    `grid_hypotheses`, each record encoded on its own. The reference
    `formats.save_hypotheses` must match byte for byte."""
    records = []
    for h in grid_hypotheses(solves)[:top_k]:
        angles = dict(zip(("roll", "pitch", "yaw"), transform_angles(h.transform)))
        records.append('%s,"cardinality":%d,"source_submap":%d,"target_submap":%d,%s'
                       % (transform_to_json(h.transform)[:-1], h.cardinality,
                          h.source_submap, h.target_submap, _compact(angles)[1:]))
    return "[" + ",".join(records) + "]"


def parse_track_file_per_record(text):
    """`formats.parse_track_file` as it was, one record at a time: the
    reference for which fault of a malformed file is reported, and how. It
    returns the track ids."""
    data = _json(text, "track file")
    intrinsics = _intrinsics(data)
    poses = {}
    for rec in _require(data, "poses", list):
        frame = _require(rec, "frame", int, " in pose record")
        rot = _require(rec, "rotation", context=" in pose record", length=9)
        tra = _require(rec, "translation", context=" in pose record", length=3)
        if frame < 0:
            raise InputError("field 'frame' must be >= 0 in pose record, got %d"
                             % frame)
        if frame in poses:
            raise InputError("duplicate pose for field 'frame' = %d" % frame)
        with _invalid("pose at frame %d" % frame):
            poses[frame] = RigidTransform(rot.reshape(3, 3), tra)
    tracks = []
    for rec in _require(data, "tracks", list):
        tid = _require(rec, "id", int, " in track record")
        frames, uv = [], []
        for drec in _require(rec, "detections", list, " in track record"):
            frame = _require(drec, "frame", int, " in detection record")
            u = _require(drec, "u", _NUMBER, " in detection record")
            v = _require(drec, "v", _NUMBER, " in detection record")
            if not (0 <= u < intrinsics.width and 0 <= v < intrinsics.height):
                raise InputError("detection centroid (%g, %g) outside image in "
                                 "track %d" % (u, v, tid))
            if frame not in poses:
                raise InputError("track %d references frame %d with no pose"
                                 % (tid, frame))
            frames.append(frame)
            uv += u, v
        with _invalid("track %d" % tid):    # as Track checked its frames
            if any(b <= a for a, b in zip(frames, frames[1:])):
                raise ValueError("frames must be strictly increasing")
        tracks.append(tid)
    if len(set(tracks)) != len(tracks):
        raise InputError("duplicate values in field 'id' of tracks")
    return tracks
