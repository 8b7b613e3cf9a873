import math
import os
import sys
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vista_align.association import _SUPPORT_TOL, _ascend, _round
from vista_align.core import (CameraIntrinsics, ObjectMap, RigidTransform,
                              transform_angles)
from vista_align.formats import _compact, _f, _floats, transform_to_json
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


def clique_number(affinity):
    """Clique number of the graph A > 0, by networkx's maximal cliques."""
    G = nx.Graph()
    G.add_nodes_from(range(affinity.size))
    G.add_edges_from(zip(*np.nonzero(np.triu(affinity.entries > 0.0, k=1))))
    return max((len(c) for c in nx.find_cliques(G)), default=0)


def reprojection_jacobian(pose, intrinsics, point):
    """Analytic 2x3 Jacobian of project() w.r.t. the 3D point: the one
    `triangulation.refine` steps with, from `_residuals`."""
    _, J, _ = _residuals(np.asarray(point, dtype=float), pose.rotation[None],
                         pose.translation[None], np.zeros((1, 2)), intrinsics)
    return J


def densest_clique_exact(affinity):
    """Exhaustive oracle for the densest consistent clique (n <= 20), as a
    sorted array of candidate indices, under the same precondition as
    `densest_clique`.

    Ties are broken by larger cardinality, then lexicographically earliest
    index set.
    """
    A = affinity.entries
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


def densest_clique_dense(affinity):
    """`association.densest_clique` as it was with a dense penalised matrix:
    an n x n copy Md of A, rewritten each homotopy round with -d on every
    infeasible pair, multiplied by BLAS, and an n x n mask for the support
    test. The reference the edge-list solver must match index for index."""
    A = affinity.entries
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


def track_file_to_json_per_value(intrinsics, poses, tracks):
    """`formats.track_file_to_json` as it was with one `_f` call per centroid
    value. The reference the per-track format must match byte for byte."""
    intr = ('{"fx":%s,"fy":%s,"cx":%s,"cy":%s,"width":%d,"height":%d}'
            % (_f(intrinsics.fx), _f(intrinsics.fy), _f(intrinsics.cx),
               _f(intrinsics.cy), intrinsics.width, intrinsics.height))
    pose_parts = []
    for frame, pose in sorted(poses.items()):
        pose_parts.append('{"frame":%d,"rotation":%s,"translation":%s}'
                          % (frame, _floats(pose.rotation.ravel()),
                             _floats(pose.translation)))
    track_parts = []
    for tr in tracks:
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
