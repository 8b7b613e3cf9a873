"""Rigid frame alignment from inlier associations (Arun's SVD method) plus
dynamic-feasibility pruning and the all-to-all submap matching driver.

Hypotheses map coordinates expressed in map A's frame into map B's frame.
`align_maps` keeps only hypotheses with more than `s_max` inliers, so it does
not solve a pair whose consistency graph holds no clique of `s_max + 1`
candidates: the densest-clique result is a clique, so it could not pass.
`evaluation.timing` solves every distinct pair once, skipping none: the PR
table scores every cardinality of that pass, and the runtime columns time
its solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .association import (Association, build_affinity, densest_clique,
                          has_clique)
from .core import DegenerateGeometryError, RigidTransform, transform_angles
from .submap import generate_submaps


@dataclass(frozen=True)
class AlignmentHypothesis:
    transform: RigidTransform
    inliers: frozenset        # Association set S
    cardinality: int          # |S|
    source_submap: int        # the first grid cells of the solve
    target_submap: int

    def __post_init__(self):
        object.__setattr__(self, "inliers", frozenset(self.inliers))
        if self.cardinality != len(self.inliers):
            raise ValueError("cardinality must equal |inliers|")


def arun(points_a, points_b):
    """Least-squares rigid transform with b_k ~ R a_k + t, via SVD of the
    cross-covariance with reflection correction."""
    pa = np.asarray(points_a, dtype=float)
    pb = np.asarray(points_b, dtype=float)
    if pa.shape != pb.shape or pa.ndim != 2 or pa.shape[1] != 3:
        raise ValueError("point sets must both be (n, 3)")
    if len(pa) < 3:
        raise ValueError("at least 3 correspondences are required")
    ca, cb = pa.mean(axis=0), pb.mean(axis=0)
    H = (pa - ca).T @ (pb - cb)
    U, S, Vt = np.linalg.svd(H)
    if S[1] < 1e-9 * max(S[0], 1e-300):
        raise DegenerateGeometryError("correspondences are collinear")
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ D @ U.T
    t = cb - R @ ca
    return RigidTransform(R, t)


def prune(hypothesis, params):
    """Return None to keep, or a rejection reason ('attitude'/'cardinality')."""
    roll, pitch, _ = transform_angles(hypothesis.transform)
    if abs(roll) > params.theta_rp or abs(pitch) > params.theta_rp:
        return "attitude"
    if hypothesis.cardinality <= params.s_max:
        return "cardinality"
    return None


def solve_submap_pair(submap_a, submap_b, params, need=0):
    """One correspondence search step: affinity -> densest clique -> Arun.

    Returns (transform, inlier set) or None when no transform is estimable
    (fewer than 3 inliers, or degenerate geometry), or when need > 0 and the
    consistency graph holds no clique of need + 1 candidates. The inlier set
    is always such a clique, so a skipped pair is one whose solve could not
    have returned more than `need` inliers.
    """
    pairs, affinity = build_affinity(submap_a, submap_b, params)
    if need > 0 and not has_clique(affinity, need + 1):
        return None
    selected = pairs[densest_clique(affinity)]    # sorted by (index_a, index_b)
    if len(selected) < 3:
        return None
    try:
        transform = arun(submap_a.points[selected[:, 0]],
                         submap_b.points[selected[:, 1]])
    except DegenerateGeometryError:
        return None
    return transform, frozenset(Association(i, k) for i, k in selected.tolist())


def solve_pairs(subs_a, subs_b, params, need=0):
    """Solve every distinct submap pair of the all-to-all grid once, passing
    `need` on to `solve_submap_pair`.

    Grid cells whose submaps have identical landmark content share one solve
    (results are identical by construction). Yields (cells_a, cells_b,
    hypothesis, seconds) per distinct pair: the tuples of grid indices that
    share one content, the solve's AlignmentHypothesis with source and target
    the first cells (None when `solve_submap_pair` returns None), and the
    seconds of the solve alone.
    """
    groups_a, groups_b = {}, {}
    for subs, groups in ((subs_a, groups_a), (subs_b, groups_b)):
        for i, sm in enumerate(subs):
            groups.setdefault(sm.landmark_ids, []).append(i)
    for ga in groups_a.values():
        for gb in groups_b.values():
            t0 = time.perf_counter()
            result = solve_submap_pair(subs_a[ga[0]], subs_b[gb[0]], params, need)
            seconds = time.perf_counter() - t0
            hyp = None if result is None else AlignmentHypothesis(
                *result, len(result[1]), ga[0], gb[0])
            yield tuple(ga), tuple(gb), hyp, seconds


def align_maps(map_a, map_b, params):
    """All-to-all submap comparison between two maps.

    Returns the kept solves as `solve_pairs` yields them, without the
    seconds: (cells_a, cells_b, hypothesis) per distinct submap pair whose
    hypothesis passes `prune`. A solve stands for every grid pair in
    cells_a x cells_b; `formats.save_hypotheses` writes a record for each.

    Pairs that cannot yield more than `s_max` inliers are not solved (see
    `solve_submap_pair`); the result is the one a solve of every pair gives.
    """
    if len(map_a) == 0 or len(map_b) == 0:
        raise ValueError("maps must be non-empty")
    subs_a = generate_submaps(map_a, params)
    subs_b = generate_submaps(map_b, params)
    return [(cells_a, cells_b, hyp) for cells_a, cells_b, hyp, _
            in solve_pairs(subs_a, subs_b, params, params.s_max)
            if hyp is not None and prune(hyp, params) is None]
