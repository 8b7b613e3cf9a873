"""Evaluation protocol: voxel IoU overlap gating, correctness classification
against a known frame alignment, precision/recall sweeps over the cardinality
gate, and per-comparison runtime measurement."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .alignment import AlignmentHypothesis, prune, solve_pairs
from .core import transform_angles
from .submap import generate_submaps


def default_voxel(params):
    """Default IoU voxel resolution: a quarter of the submap window."""
    return params.window / 4.0


def _voxel_cells(points, voxel):
    return {tuple(c) for c in np.floor(np.asarray(points) / voxel).astype(np.int64)}


def submap_iou(submap_a, submap_b, voxel):
    """Voxel-occupancy IoU of two submaps expressed in a common frame."""
    if voxel <= 0:
        raise ValueError("voxel must be positive")
    if len(submap_a) == 0 or len(submap_b) == 0:
        return 0.0
    cells_a = _voxel_cells(submap_a.points, voxel)
    cells_b = _voxel_cells(submap_b.points, voxel)
    return len(cells_a & cells_b) / len(cells_a | cells_b)


def classify(hypothesis, truth, params):
    """True when the hypothesis residual against the ground-truth alignment
    passes the roll/pitch, yaw, and translation gates (all strict <)."""
    transform = getattr(hypothesis, "transform", hypothesis)
    residual = transform.compose(truth.inverse())
    roll, pitch, yaw = transform_angles(residual)
    return (abs(roll) < params.theta_rp and abs(pitch) < params.theta_rp
            and abs(yaw) < params.theta_yaw
            and float(np.linalg.norm(residual.translation)) < params.t_max)


@dataclass(frozen=True)
class PairOutcome:
    """Result of one submap-pair comparison, ready for PR aggregation."""

    iou: float
    cardinality: int       # 0 when no transform was estimable
    attitude_ok: bool      # survived the roll/pitch pruning gate
    correct: bool          # classification of the transform vs ground truth


@dataclass(frozen=True)
class PrPoint:
    s_max: int
    precision: float
    recall: float
    n_hypothesized: int
    n_overlapping: int


def precision_recall(outcomes, params, s_max_sweep):
    """PR table over the cardinality-gate sweep.

    Hypothesized = attitude-surviving outcomes with |S| > s_max. Precision is
    undefined when nothing is hypothesized (n_hypothesized == 0) and is then
    reported as 1.0.
    """
    overlapping = [o for o in outcomes if o.iou > params.theta_overlap]
    rows = []
    for s_max in s_max_sweep:
        hyp = [o for o in outcomes if o.attitude_ok and o.cardinality > s_max]
        n_correct = sum(o.correct for o in hyp)
        precision = n_correct / len(hyp) if hyp else 1.0
        n_recalled = sum(o.correct for o in hyp if o.iou > params.theta_overlap)
        recall = n_recalled / len(overlapping) if overlapping else 0.0
        rows.append(PrPoint(s_max, precision, recall, len(hyp), len(overlapping)))
    return rows


def evaluate_map_pair(map_a, map_b, truth, params, voxel=None, repeats=3):
    """Solve every submap pair `repeats` times (see `timing`) and return
    (outcomes, mean_s, std_s): the first pass's per-pair outcomes for PR
    aggregation, and seconds per solve. No submap pair gives ([], nan, nan).

    `truth` maps map-A-frame coordinates into map-B-frame coordinates; IoU is
    computed after pulling map B's submaps back into map A's frame.
    """
    if voxel is None:
        voxel = default_voxel(params)
    subs_a = generate_submaps(map_a, params)
    subs_b = generate_submaps(map_b, params)
    solved, mean_s, std_s = (timing(subs_a, subs_b, params, repeats)
                             if subs_a and subs_b else ([], np.nan, np.nan))
    truth_inv = truth.inverse()

    outcomes = []
    for grid_a, grid_b, res, _ in solved:
        sa, sb = subs_a[grid_a[0]], subs_b[grid_b[0]]
        cardinality, attitude_ok, correct = 0, False, False
        if res is not None:
            hyp = AlignmentHypothesis(res[0], res[1], len(res[1]), grid_a[0], grid_b[0])
            cardinality = hyp.cardinality
            attitude_ok = prune(hyp, params) != "attitude"
            correct = classify(hyp, truth, params)
        iou = submap_iou(sa, replace(sb, points=truth_inv.apply(sb.points)), voxel)
        outcomes += [PairOutcome(iou, cardinality, attitude_ok, correct)] \
            * (len(grid_a) * len(grid_b))
    return outcomes, mean_s, std_s


def timing(subs_a, subs_b, params, repeats):
    """Solve every distinct pair of two submap grids `repeats` (>= 3) times.
    Returns the first pass's `solve_pairs` items and the wall-clock (mean, std)
    seconds per solve over all passes; later passes keep only their seconds.
    No pair is a ValueError."""
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    first = list(solve_pairs(subs_a, subs_b, params))
    if not first:
        raise ValueError("no submap pair to time")
    seconds = [s for *_, s in first] + [s for _ in range(repeats - 1)
                                        for *_, s in solve_pairs(subs_a, subs_b, params)]
    return first, float(np.mean(seconds)), float(np.std(seconds))
